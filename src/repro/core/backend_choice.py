"""Cost-based automatic backend selection (the paper's future work).

Sections 2.6 and 3.6 describe the plan: "decisions on what framework to
use depend on whether the dataframes can fit in memory, which can be
inferred from the metadata statistics", plus row-order dependence.  This
module implements it:

- estimate the in-memory footprint of each CSV scan (columns actually
  needed, via the metastore's per-column widths),
- model each backend's memory behaviour (pandas: eager whole-frame with
  a working-copy factor; Modin: dictionary-compressed strings; Dask:
  bounded by partitions + spill),
- respect *order sensitivity*: programs using order-dependent operations
  (sort + positional access) must not run on Dask (section 5.1's caveat),
- pick the fastest backend that fits.

``choose_backend_for_roots`` works on a LaFP task graph, so the choice
can be made at the first ``compute()`` with full knowledge of the reads
and their (possibly projection-narrowed) column sets.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from repro.graph.node import Node
from repro.graph.taskgraph import collect_subgraph

#: eager engines hold the source frame plus roughly one working copy.
EAGER_WORKING_FACTOR = 2.0
#: fraction of string bytes Arrow-style dictionary encoding removes for
#: repetitive columns (selectivity below the category threshold).
DICTIONARY_SAVINGS = 0.8
#: operations whose results depend on global row order.
ORDER_SENSITIVE_OPS = {"sort_values", "sort_index", "head", "tail", "nlargest", "nsmallest"}


@dataclasses.dataclass
class BackendEstimate:
    """Cost-model output for one backend."""

    backend: str
    bytes_needed: int
    fits: bool
    order_safe: bool

    @property
    def viable(self) -> bool:
        return self.fits and self.order_safe


def estimate_read_bytes(node: Node, metastore, compressed_strings: bool) -> Optional[int]:
    """In-memory bytes of one CSV ``scan`` node, per the metastore."""
    path = node.args.get("path")
    if path is None or metastore is None:
        return None
    meta = metastore.get(path)
    if meta is None:
        return None
    columns = node.args.get("columns") or list(meta.columns)
    total = 0.0
    for name in columns:
        stats = meta.columns.get(name)
        if stats is None:
            continue
        width = stats.avg_width
        if (
            compressed_strings
            and stats.dtype == "object"
            and stats.selectivity <= 0.5
        ):
            width = width * (1 - DICTIONARY_SAVINGS) + 4  # codes
        total += width * meta.n_rows
    return int(total)


def order_sensitive(roots: Sequence[Node]) -> bool:
    """Does the graph rely on global row order anywhere?"""
    return any(
        n.op in ORDER_SENSITIVE_OPS for n in collect_subgraph(list(roots))
    )


def choose_backend_for_roots(
    roots: Sequence[Node],
    metastore,
    budget_bytes: Optional[int],
) -> List[BackendEstimate]:
    """Rank backends for this computation; first viable entry wins.

    Without a budget or metadata the ranking degrades gracefully to the
    paper's default order (pandas fastest when everything fits is
    unknowable, so the lazy default wins: dask).
    """
    reads = [
        n for n in collect_subgraph(list(roots))
        if n.op == "scan" and n.args.get("format") == "csv"
    ]
    plain = [estimate_read_bytes(n, metastore, compressed_strings=False) for n in reads]
    packed = [estimate_read_bytes(n, metastore, compressed_strings=True) for n in reads]
    sensitive = order_sensitive(roots)

    if budget_bytes is None or not reads or any(b is None for b in plain):
        # no basis for a cost decision: prefer the safe lazy default,
        # falling back to pandas when row order matters.
        default = "pandas" if sensitive else "dask"
        return [BackendEstimate(default, 0, True, True)]

    pandas_bytes = int(sum(plain) * EAGER_WORKING_FACTOR)
    modin_bytes = int(sum(packed) * EAGER_WORKING_FACTOR)
    estimates = [
        BackendEstimate("pandas", pandas_bytes, pandas_bytes <= budget_bytes, True),
        BackendEstimate("modin", modin_bytes, modin_bytes <= budget_bytes, True),
        # Dask needs only a few partitions resident; treat as always
        # fitting, but unusable for order-sensitive programs.
        BackendEstimate("dask", 0, True, not sensitive),
    ]
    return estimates


def pick(estimates: List[BackendEstimate]) -> str:
    """First viable backend in preference order (fastest first)."""
    for estimate in estimates:
        if estimate.viable:
            return estimate.backend
    # nothing fits: the out-of-core engine is the only hope, order be damned
    return "dask"


def auto_select(session, roots: Sequence[Node]) -> str:
    """Choose and install a backend on ``session`` for this computation."""
    estimates = choose_backend_for_roots(
        roots, session.metastore, session.memory.budget
    )
    backend = pick(estimates)
    session.set_backend(backend)
    return backend
