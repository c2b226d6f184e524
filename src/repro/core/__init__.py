"""The paper's primary contribution: the tag sort/retrieve circuit.

Public surface:

* :class:`~repro.core.sort_retrieve.TagSortRetrieveCircuit` — the composed
  circuit (tree + translation table + tag storage memory).
* :class:`~repro.core.tree.MultiBitTree` — the closest-match search tree.
* :class:`~repro.core.translation.TranslationTable` and
  :class:`~repro.core.tag_storage.TagStorageMemory` — its memories.
* :mod:`repro.core.matching` — the five node-search circuit topologies.
* :mod:`repro.core.sizing` — eqs. (2)/(3) storage budgets.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "pipeline": (
        "OPERATION_LATENCY_CYCLES",
        "STAGE_CYCLES",
        "PipelinedSortRetrieve",
    ),
    "matching": (
        "ALL_MATCHERS",
        "DEFAULT_MATCHER",
        "BlockLookaheadMatcher",
        "LookaheadMatcher",
        "MatchingCircuit",
        "MatchResult",
        "RippleMatcher",
        "SelectLookaheadMatcher",
        "SkipLookaheadMatcher",
        "reference_search",
    ),
    "sizing": (
        "TreeBudget",
        "budget_for",
        "level_memory_bits",
        "mixed_width_tree_bits",
        "sweep_configurations",
        "total_tree_bits",
        "translation_table_entries",
        "worst_case_node_searches",
    ),
    "sort_retrieve": ("FIXED_OP_CYCLES", "ServedTag", "TagSortRetrieveCircuit"),
    "tag_storage": ("CYCLES_PER_OPERATION", "Link", "TagStorageMemory"),
    "translation": ("TranslationTable",),
    "tree": ("MultiBitTree", "SearchOutcome", "TreeInvariantError"),
    "words": ("FIGURE_FORMAT", "PAPER_FORMAT", "WordFormat"),
})
