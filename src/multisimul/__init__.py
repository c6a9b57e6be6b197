"""Multi-source simultaneous translation simulation under ASR-like lexical noise."""

from .corpus import (
    Alignment,
    TokenSequence,
    TranscriptPair,
    load_parallel,
    load_word_alignment,
    tokenize_13a,
)
from .independence import analyze_independence, build_contingency
from .metrics import (
    align_edit,
    average_lagging,
    bleu,
    chi_square_2x2,
    chrf2,
    corpus_wer,
    normalized_erasure,
    paired_bootstrap,
    token_correctness,
    wer,
)
from .mock_mt import LexiconTranslator
from .noise import (
    LexicalNoiseModel,
    apply_noise,
    apply_noise_corpus,
    expected_wer,
    load_model,
    rescale_to_wer,
    save_model,
    train_noise_model,
)
from .simul import (
    LocalAgreementState,
    SimulEventLog,
    decode_full,
    la_step,
    late_average,
    run_simul,
    schedule_reads,
)

__version__ = "0.1.0"
