"""Cascaded feed-forward span scoring for extractive QA over long documents."""

from .autodiff import (
    DropoutState,
    FfnnParams,
    GradCheckResult,
    LinearParams,
    Tape,
    Tensor,
    concat,
    ffnn,
    finite_difference_check,
    linear,
    softmax,
)
from .bench import BiLstmParams, bilstm_forward, run_benchmark
from .corpus import (
    CandidateSet,
    Document,
    QAExample,
    SpanTable,
    build_candidates,
    load_examples,
    tokenize,
    truncate,
)
from .embeddings import EmbeddingTable, load_embeddings, random_table
from .evaluation import (
    EvalReport,
    ScoredExample,
    evaluate,
    exact_match,
    normalize_answer,
    token_f1,
)
from .model import (
    Architecture,
    CascadeParams,
    CascadeScores,
    EncodedExample,
    ForwardStats,
    Prediction,
    encode_example,
    forward_cascade,
    load_checkpoint,
    make_scorer,
    predict,
    save_checkpoint,
    score_example,
)
from .training import (
    AdagradState,
    LossWeights,
    TrainConfig,
    adagrad_step,
    multi_loss,
    parse_config_file,
    train,
)

__version__ = "0.1.0"
