"""Spans around the program's layer calls, recorded from outside it.

``Tracer`` rebinds each traced public function, in every loaded
``comparability`` module that imported it, to a wrapper that records a
span (query id, span id, parent span id, name, start, end, status). No
file of the program changes, and calls between modules are caught as
well as calls from the CLI. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

# (module, function); the metric prefix is "<module>.<function>"
LAYERS = (
    ("cli", "load_graph"),
    ("modular", "build_modular_tree"),
    ("modular", "tree_to_json"),
    ("graphs", "is_prime"),
    ("orientations", "count_orientations"),
    ("groups", "aut_tree"),
    ("permgraphs", "is_permutation_graph"),
    ("permgraphs", "orientation_pairs"),
    ("permgraphs", "build_representation"),
    ("permgraphs", "representation_svg"),
    ("permgraphs", "prime_symmetry_class"),
    ("dim4", "construct_cx"),
    ("dim4", "four_chains"),
    ("dim4", "verify_chain_intersection"),
    ("dim4", "gi_reduction"),
)
REFUSING = ("groups.aut_tree", "permgraphs.orientation_pairs",
            "permgraphs.prime_symmetry_class")
QUERY = "query"

QID, SID, PARENT, NAME, START, END, STATUS = range(7)


class Tracer:
    """Context manager: while active, traced calls append spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._qid = -1
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        import comparability.cli  # noqa: F401  (loads every layer module)
        from comparability.errors import OracleBoundError
        self._refusal = OracleBoundError
        modules = [m for name, m in list(sys.modules.items())
                   if name == "comparability" or
                   name.startswith("comparability.")]
        for mod_name, fn_name in LAYERS:
            home = sys.modules.get(f"comparability.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                continue  # gone from the program: its metrics read 0
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._saved.append((m, attr, value))
                        setattr(m, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for m, attr, value in reversed(self._saved):
            setattr(m, attr, value)
        self._saved.clear()

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [self._qid, len(self.spans), parent, name,
                time.perf_counter(), None, "ok"]
        self.spans.append(span)
        self._stack.append(span[SID])
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except self._refusal:
                span[STATUS] = "refused"
                raise
            except BaseException:
                span[STATUS] = "error"
                raise
            finally:
                self._close(span)
            self._observe(name, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def _observe(self, name: str, result) -> None:
        if name == "modular.build_modular_tree":
            primes = [len(nd.members) for nd in result.nodes
                      if nd.kind == "prime"]
            self.counts["modular.tree_nodes"] += len(result.nodes)
            self.counts["modular.prime_nodes"] += len(primes)
            self.counts["modular.max_prime_members"] = max(
                [self.counts["modular.max_prime_members"], *primes])
        elif name == "dim4.construct_cx":
            self.counts["dim4.gadget_vertices"] += result.graph.n

    @contextlib.contextmanager
    def query(self, qid: int):
        """Root span of one query; layer spans opened inside attach to it."""
        self._qid = qid
        span = self._open(QUERY)
        try:
            yield
        finally:
            self._close(span)
            self._qid = -1


def layer_names() -> list[str]:
    return [f"{m}.{f}" for m, f in LAYERS]


def derive(spans: list[list], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics: calls, busy time (outermost spans of a layer, so
    nested calls of the same function count once), self time (duration
    minus direct children), refusals, and the query roots' self time."""
    by_id = {s[SID]: s for s in spans}
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            covered[s[PARENT]] += s[END] - s[START]

    def nested_in_same(s) -> bool:
        p = s[PARENT]
        while p is not None:
            if by_id[p][NAME] == s[NAME]:
                return True
            p = by_id[p][PARENT]
        return False

    out: dict[str, float] = {}
    for name in layer_names() + [QUERY]:
        mine = [s for s in spans if s[NAME] == name]
        outer = [s for s in mine if not nested_in_same(s)]
        self_s = sum(s[END] - s[START] - covered[s[SID]] for s in mine)
        if name == QUERY:
            out["query.self_s"] = self_s
            continue
        out[f"{name}.calls"] = len(mine)
        out[f"{name}.busy_s"] = sum(s[END] - s[START] for s in outer)
        out[f"{name}.self_s"] = self_s
        if name in REFUSING:
            refused = sum(s[STATUS] == "refused" for s in outer)
            out[f"{name}.refused"] = refused
            if name == "groups.aut_tree":
                out[f"{name}.answered_ratio"] = \
                    (len(outer) - refused) / len(outer) if outer else 0.0
    for key in ("modular.tree_nodes", "modular.prime_nodes",
                "modular.max_prime_members", "dim4.gadget_vertices"):
        out[key] = counts.get(key, 0)
    return out
