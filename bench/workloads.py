"""The three workloads: which queries a round holds and how each is checked.

A workload is a fixed list of slots (subcommand, input family, size). A
run draws the slots' inputs from its seed one round at a time, shuffles
the round and writes every input as an edge-list file before the round
starts. Every input graph of a run is new to that run, because the
program's caches compare graphs and trees by value.

Sizes are set so that a round takes a few seconds on the seed and a run
of whole rounds gives well over a hundred latency samples. Each round
repeats one slot several times (fresh graphs each time) exactly where
the median falls, and ends in a class of its dearest answered queries
where the 90th percentile falls. A run is a whole number of rounds, so
both percentiles then land inside one class of like queries instead of
on the step between two classes of very different cost, where a small
change in which query sorts first would move them by a large factor.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import check
import gen

# (subcommand, family, sizes). Within each workload the slots are listed
# from cheap to dear: the class that holds the median (middle rank of a
# round) and the class that holds the 90th percentile (the tenth of the
# round from the top, refusals counted at the deadline) are marked.
SLOTS = {
    # Two random linear orders are almost always one big prime node; the
    # "prime" family redraws them until it is exactly one, which keeps the
    # cost of the large slots steady from seed to seed. Paths are the
    # worst case of the pairwise module closure. Text perm stops at
    # n = 20: its 2^n primality sweep grows about 40-fold from n = 14 to
    # n = 20 and would hang past 22; above n = 10 the seed then refuses
    # the symmetry class, as it refuses aut on every prime node above 10
    # vertices. 40 slots: 17 below the median class, 5 in it, 13 above
    # it, then svg perm at n = 80 twice (90th percentile) and 3 refusals.
    "prime": [
        ("perm", "prime", (6, 7, 8, 9, 10)),
        ("decompose", "two-order", (30, 40, 50)),
        ("orientations", "two-order", (30, 40, 50)),
        ("decompose", "path", (30, 40)),
        ("orientations", "path", (30, 40)),
        ("perm-svg", "prime", (20, 30)),
        ("decompose", "prime", (80, 80, 80, 80, 80)),          # median
        ("decompose", "prime", (95, 100, 110)),
        ("decompose", "path", (55, 60)),
        ("orientations", "prime", (80, 95, 110)),
        ("orientations", "path", (55, 60)),
        ("perm-svg", "prime", (40, 50, 60)),
        ("perm-svg", "prime", (80, 80)),                       # p90
        ("perm", "prime", (14, 20)),
        ("aut", "prime", (30,)),
    ],
    # Substitution trees of complete, independent and small prime nodes:
    # aut does per-node oracles, canonical labels (factorial in the size
    # of degenerate nodes) and wreath/semidirect assembly; modular takes
    # many shallow component steps. perm gets one graph that is not a
    # permutation graph and one that is, refused at the orientation-pair
    # bound, so every round holds exactly one refusal. The median class
    # is the largest orientation counts and json trees, whose cost varies
    # less from tree to tree than aut's. 37 slots: 15 below the median
    # class, 6 in it, 10 above it, 5 at the 90th percentile and the
    # refusal.
    "tree-mix": [
        ("perm", "subst-other", (50,)),
        ("aut", "subst", (40, 50)),
        ("decompose-json", "subst", (40, 55, 70, 85, 100, 120)),
        ("orientations", "subst", (40, 55, 70, 85, 100, 120)),
        ("decompose-json", "subst", (150, 150, 150)),          # median
        ("orientations", "subst", (150, 150, 150)),            # median
        ("aut", "subst", (90, 100, 100, 115, 115, 115,
                          130, 130, 130, 130)),
        ("aut", "subst", (150, 150, 150, 150, 150)),           # p90
        ("perm", "subst-perm", (100,)),
    ],
    # dim4 chains and their verification plus the GI reduction's file
    # writes; no modular, groups, orientations or permgraphs call runs.
    # 28 slots: 12 below the median class, 4 in it, 8 above it and 4 at
    # the top, which holds the 90th percentile.
    "gadget": [
        ("reduce-iso", "bipartite", (50, 100, 150, 200)),
        ("reduce-miss", "bipartite", (50, 100, 150, 200)),
        ("dim4", "bipartite", (40, 60)),
        ("dim4-json", "bipartite", (40, 60)),
        ("dim4", "bipartite", (100, 100)),                     # median
        ("dim4-json", "bipartite", (100, 100)),                # median
        ("dim4", "bipartite", (120, 140, 160, 180)),
        ("dim4-json", "bipartite", (120, 140, 160, 180)),
        ("dim4", "bipartite", (200, 200)),                     # p90
        ("dim4-json", "bipartite", (200, 200)),                # p90
    ],
}

ARGV = {
    "decompose": ["decompose", "{0}"],
    "decompose-json": ["--format", "json", "decompose", "{0}"],
    "orientations": ["orientations", "{0}", "--count"],
    "perm": ["perm", "{0}"],
    "perm-svg": ["--format", "svg", "perm", "{0}"],
    "aut": ["aut", "{0}"],
    "dim4": ["dim4", "{0}"],
    "dim4-json": ["--format", "json", "dim4", "{0}"],
    "reduce-iso": ["reduce", "{0}", "{1}", "--output-dir", "{2}"],
    "reduce-miss": ["reduce", "{0}", "{1}", "--output-dir", "{2}"],
}

CHECKERS = {
    "decompose": check.check_decompose_text,
    "decompose-json": check.check_decompose_json,
    "orientations": check.check_orientation_count,
    "perm": check.check_perm_text,
    "perm-svg": check.check_perm_svg,
    "aut": check.check_aut,
    "dim4": check.check_dim4_text,
    "dim4-json": check.check_dim4_json,
}

FAMILIES = {
    "two-order": gen.two_order_graph,
    "prime": partial(gen.two_order_graph, prime=True),
    "path": gen.path_graph,
    "subst": gen.substitution_graph,
    "subst-perm": partial(gen.substitution_graph, permutation=True),
    "subst-other": partial(gen.substitution_graph, permutation=False),
    "bipartite": gen.bipartite_graph,
}


@dataclass
class Query:
    qid: int
    command: str
    n: int
    argv: list[str]
    check: Callable[[int, str], str | None]


def round_slots(workload: str) -> list[tuple[str, str, int]]:
    return [(cmd, family, n) for cmd, family, sizes in SLOTS[workload]
            for n in sizes]


class QueryStream:
    """Rounds of queries for one workload and seed, files under `root`."""

    def __init__(self, workload: str, seed: int, root: Path):
        self.workload = workload
        self.rng = random.Random(f"{workload}/{seed}")
        self.root = root
        self.seen: set = set()
        self.next_qid = 0
        self.rounds = 0

    def _fresh(self, make) -> gen.Graph:
        while True:
            g = make()
            if (g.n, g.edges) not in self.seen:
                self.seen.add((g.n, g.edges))
                return g

    def next_round(self) -> list[Query]:
        """Writes the next round's inputs and returns its queries."""
        slots = round_slots(self.workload)
        self.rng.shuffle(slots)
        folder = self.root / f"round{self.rounds}"
        shutil.rmtree(folder, ignore_errors=True)
        folder.mkdir(parents=True)
        self.rounds += 1
        return [self._query(folder, *slot) for slot in slots]

    def _query(self, folder: Path, command: str, family: str, n: int) -> Query:
        qid = self.next_qid
        self.next_qid += 1
        graphs = [self._fresh(lambda: FAMILIES[family](self.rng, n))]
        if command.startswith("reduce"):
            x = graphs[0]
            twin = gen.relabeled if command == "reduce-iso" else gen.near_miss
            graphs.append(self._fresh(lambda: twin(self.rng, x)))
        paths = []
        for i, g in enumerate(graphs):
            path = folder / f"q{qid}_{i}.txt"
            path.write_text(g.edge_list_text())
            paths.append(str(path))
        out_dir = folder / f"q{qid}_out"
        argv = [a.format(*paths, out_dir) for a in ARGV[command]]
        if command.startswith("reduce"):
            checker = partial(check.check_reduce, tuple(graphs),
                              out_dir=out_dir,
                              isomorphic=command == "reduce-iso")
        else:
            checker = partial(CHECKERS[command], graphs[0])
        return Query(qid, command, n, argv, checker)
