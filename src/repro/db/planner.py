"""Cost-based access-path planning with EXPLAIN output.

:class:`Table.select` chooses its path with exact candidate sets from
the indices themselves (it *asks* the secondary index how many blocks a
range touches).  A real optimiser cannot afford that — it predicts from
statistics.  :class:`QueryPlanner` does the classic thing:

1. enumerate candidate paths — clustered primary range, one per
   secondary index, one per hash index (equality only), full scan;
2. estimate each path's ``N`` from :class:`~repro.db.stats.TableStatistics`
   (clustered fraction, Yao's formula, or the whole file);
3. cost each as the paper's Equation 5.7 — ``I + N (t1 + t_cpu)`` —
   using the disk model's ``t1`` and a per-block CPU constant;
4. pick the cheapest; :meth:`QueryPlanner.explain` renders the whole
   candidate table for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.db.query import QueryResult, RangeQuery
from repro.db.stats import TableStatistics
from repro.db.table import Table
from repro.errors import QueryError
from repro.perf.costmodel import INDEX_BLOCK_FRACTION, PAPER_T1_MS

__all__ = ["AccessPlan", "QueryPlanner"]


@dataclass(frozen=True)
class AccessPlan:
    """One candidate access path with its predictions."""

    path: str                 # "primary" | "secondary:X" | "hash:X" | "scan"
    attribute: Optional[str]
    estimated_blocks: float
    estimated_cost_ms: float

    def describe(self) -> str:
        """One EXPLAIN line."""
        return (
            f"{self.path:<20s} est. N = {self.estimated_blocks:8.1f}   "
            f"est. cost = {self.estimated_cost_ms:9.1f} ms"
        )


class QueryPlanner:
    """Statistics-driven access-path selection for one table."""

    def __init__(
        self,
        table: Table,
        statistics: Optional[TableStatistics] = None,
        *,
        t1_ms: float = PAPER_T1_MS,
        cpu_ms_per_block: float = 0.5,
    ):
        self._table = table
        if statistics is None:
            statistics = TableStatistics.collect(
                table.schema, table.storage.iter_blocks()
            )
        self._stats = statistics
        self._t1_ms = t1_ms
        self._cpu_ms = cpu_ms_per_block

    @property
    def statistics(self) -> TableStatistics:
        """The statistics bundle plans are computed from."""
        return self._stats

    # ------------------------------------------------------------------
    # Costing
    # ------------------------------------------------------------------

    def _cost_ms(self, blocks: float) -> float:
        """Equation 5.7: index I/O plus N block reads plus per-block CPU."""
        index_ms = self._stats.num_blocks * INDEX_BLOCK_FRACTION * self._t1_ms
        return index_ms + blocks * (self._t1_ms + self._cpu_ms)

    def _scan_cost_ms(self, blocks: float) -> float:
        """A scan reads no index blocks."""
        return blocks * (self._t1_ms + self._cpu_ms)

    # ------------------------------------------------------------------
    # Plan enumeration
    # ------------------------------------------------------------------

    def candidate_plans(self, query: RangeQuery) -> List[AccessPlan]:
        """All applicable plans, cheapest first."""
        plans: List[AccessPlan] = [
            AccessPlan(
                path="scan",
                attribute=None,
                estimated_blocks=float(self._stats.num_blocks),
                estimated_cost_ms=self._scan_cost_ms(self._stats.num_blocks),
            )
        ]
        schema = self._table.schema
        for pred in query.predicates:
            pos, lo, hi = pred.bind(schema)
            if pos == 0:
                blocks = self._stats.estimate_blocks_clustered(
                    pred.attribute, lo, hi
                )
                plans.append(
                    AccessPlan(
                        path="primary",
                        attribute=pred.attribute,
                        estimated_blocks=blocks,
                        estimated_cost_ms=self._cost_ms(blocks),
                    )
                )
            if pred.attribute in self._table.secondary_indices:
                blocks = self._stats.estimate_blocks_scattered(
                    pred.attribute, lo, hi
                )
                plans.append(
                    AccessPlan(
                        path=f"secondary:{pred.attribute}",
                        attribute=pred.attribute,
                        estimated_blocks=blocks,
                        estimated_cost_ms=self._cost_ms(blocks),
                    )
                )
            if lo == hi and pred.attribute in self._table.hash_indices:
                blocks = self._stats.estimate_blocks_scattered(
                    pred.attribute, lo, hi
                )
                plans.append(
                    AccessPlan(
                        path=f"hash:{pred.attribute}",
                        attribute=pred.attribute,
                        estimated_blocks=blocks,
                        # hash probes skip the B+ tree descent; charge one
                        # directory block instead of the 5% index estimate
                        estimated_cost_ms=self._t1_ms
                        + blocks * (self._t1_ms + self._cpu_ms),
                    )
                )
        plans.sort(key=lambda p: p.estimated_cost_ms)
        return plans

    def choose(self, query: RangeQuery) -> AccessPlan:
        """The cheapest applicable plan."""
        plans = self.candidate_plans(query)
        if not plans:
            raise QueryError("no applicable access plan")
        return plans[0]

    def explain(self, query: RangeQuery) -> str:
        """EXPLAIN: every candidate with its estimates, cheapest first."""
        lines = [f"EXPLAIN {query!r}"]
        for i, plan in enumerate(self.candidate_plans(query)):
            marker = "->" if i == 0 else "  "
            lines.append(f"  {marker} {plan.describe()}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Planned execution
    # ------------------------------------------------------------------

    def execute(self, query: RangeQuery) -> QueryResult:
        """Run the query along the chosen plan's path.

        The planner only decides *which* path; :meth:`Table.plan` fetches
        that path's candidate blocks and the table's block executor runs
        them.
        """
        path = self.choose(query).path
        return self._table._execute(self._table.plan(query, path))
