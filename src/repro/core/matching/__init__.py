"""Closest-match node-search circuits (paper Section III-B, ref. [13]).

Five structurally distinct implementations of the same node-search
function, plus a golden reference model.  :data:`ALL_MATCHERS` drives the
Fig. 7 / Fig. 8 sweeps.  The gate-level netlist names load on first use
(PEP 562): only the structural checks build netlists, and every circuit
import would otherwise compile them.
"""

from typing import Dict, Type

from ..._exports import lazy_exports
from .base import MatchingCircuit, MatchResult, highest_set_bit, reference_search
from .block_lookahead import BlockLookaheadMatcher
from .lookahead import LookaheadMatcher
from .ripple import RippleMatcher
from .select_lookahead import SelectLookaheadMatcher, optimal_select_block
from .skip_lookahead import SkipLookaheadMatcher, optimal_skip_block

ALL_MATCHERS: Dict[str, Type[MatchingCircuit]] = {
    RippleMatcher.name: RippleMatcher,
    LookaheadMatcher.name: LookaheadMatcher,
    BlockLookaheadMatcher.name: BlockLookaheadMatcher,
    SkipLookaheadMatcher.name: SkipLookaheadMatcher,
    SelectLookaheadMatcher.name: SelectLookaheadMatcher,
}
"""All circuit topologies, keyed by their short names."""

DEFAULT_MATCHER = SelectLookaheadMatcher
"""The topology used in the final architecture (fastest per ref. [13])."""

_netlist_names, __getattr__, __dir__ = lazy_exports(__name__, {
    "netlist": ("Netlist", "build_matcher_netlist", "netlist_search"),
})

__all__ = [
    "MatchingCircuit",
    "MatchResult",
    "reference_search",
    *_netlist_names,
    "highest_set_bit",
    "RippleMatcher",
    "LookaheadMatcher",
    "BlockLookaheadMatcher",
    "SkipLookaheadMatcher",
    "SelectLookaheadMatcher",
    "optimal_select_block",
    "optimal_skip_block",
    "ALL_MATCHERS",
    "DEFAULT_MATCHER",
]
