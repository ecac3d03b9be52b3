"""Entity-property knowledge base augmentation for NER.

Pipeline: ingest a WikiData-style dump into a surface-form dictionary with
property contexts, retrieve entity/context pairs for a sentence by longest
string match, append the contexts to the input with an entity-aware
attention mask, and tag with a small from-scratch transformer. Includes
k-fold weighted voting and entity-level span F1 scoring.
"""

from propner.kbstore import (
    EntityRecord,
    KnowledgeBase,
    build_context,
    build_knowledge_base,
    load_kb,
    normalize_surface,
    parse_dump,
    save_kb,
)
from propner.matcher import (
    EntityMatch,
    Matcher,
    Sentence,
    build_matcher,
    find_candidates,
    resolve_overlaps,
    retrieve,
)
from propner.augmenter import AttentionMask, AugmentedInput, Segment, assemble
from propner.encoder import ToyEncoderModel, TrainConfig, gradient_check, masked_attention, predict, train
from propner.ensemble import FoldPlan, WeightedPredictions, extract_spans, kfold_split, repair_bio, weighted_vote
from propner.evaluator import EvalReport, coverage_rate, score

__version__ = "0.1.0"
