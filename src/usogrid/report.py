"""Run reports: the JSON/CSV record of one solve."""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .oracles import QueryCounter
from .solvers import ALGORITHMS

#: Which counter each algorithm is judged by.
ALG_QUERY_KIND = {name: alg.kind for name, alg in ALGORITHMS.items()}

CSV_HEADER = "alg,m,n,seed,queries_vertex,queries_edge,bound,bound_ok"


@dataclass
class RunReport:
    """One solve: what ran, what it cost, and whether the contract held.

    ``sink`` is 1-based, matching the serialization boundary.  ``bound_ok``
    is queries-of-the-algorithm's-kind <= bound.  ``verdict`` is one of
    ok / sink-mismatch / bound-exceeded.
    """

    algorithm: str
    shape: tuple[int, ...]
    seed: int | None
    queries: dict[str, int]
    bound: int
    bound_ok: bool
    sink: tuple[int, ...]
    verdict: str
    wall_time: float

    @classmethod
    def build(
        cls,
        algorithm: str,
        shape,
        seed: int | None,
        counter: QueryCounter,
        bound: int,
        sink,
        expected_sink,
        wall_time: float = 0.0,
    ) -> "RunReport":
        queries = counter.as_dict()
        bound_ok = queries[ALG_QUERY_KIND[algorithm]] <= bound
        if tuple(sink) != tuple(expected_sink):
            verdict = "sink-mismatch"
        elif not bound_ok:
            verdict = "bound-exceeded"
        else:
            verdict = "ok"
        return cls(
            algorithm=algorithm,
            shape=tuple(shape),
            seed=seed,
            queries=queries,
            bound=bound,
            bound_ok=bound_ok,
            sink=tuple(c + 1 for c in sink),
            verdict=verdict,
            wall_time=wall_time,
        )

    def to_json_dict(self) -> dict:
        """Every field by name; ``shape`` and ``sink`` stay tuples, which
        JSON writes as lists."""
        return asdict(self)

    def csv_row(self) -> str:
        if len(self.shape) != 2:
            raise ValueError("CSV rows are defined for 2-dimensional runs only")
        m, n = self.shape
        return (
            f"{self.algorithm},{m},{n},{'' if self.seed is None else self.seed},"
            f"{self.queries['vertex']},{self.queries['edge']},"
            f"{self.bound},{str(self.bound_ok).lower()}"
        )
