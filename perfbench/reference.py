"""Reference semantics for the benchmark's correctness checks.

Written apart from xplain on purpose: a check that called the engine under
test could not catch that engine's mistakes.  Models are read from the JSON
documents the CLI loads, in one of two forms:

* ``TableModel``: the class of all ``2**n`` examples as one integer (bit m is
  the class of the example whose feature i is bit i of m), built by doubling
  feature columns and folding whole columns per term, rule or gate.  Used
  for rule models and circuits.
* ``PathModel``: the reachable leaves of a tree, or of the majority product
  of a tree ensemble, as ``(mask, value, label)`` bit triples.  Reachable
  leaf paths are disjoint and cover every example, so each explanation
  question reduces to conflicts between bit masks; no table is needed, which
  keeps 24-feature trees cheap.

Both answer the same questions: the class of an example, whether fixing
some features forces a class, and the smallest explanation up to a budget
by brute force over candidate sets.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Optional


def subsets(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Feature subsets of size at most k, smallest first."""
    for size in range(min(k, n) + 1):
        yield from combinations(range(n), size)


def bits_of(features) -> int:
    return sum(1 << f for f in features)


def at_least(columns: list[int], threshold: int, full: int) -> int:
    """Positions where at least ``threshold`` columns are set (layered
    counting)."""
    reach = [full] + [0] * threshold  # reach[j]: at least j of those seen
    for col in columns:
        for j in range(threshold, 0, -1):
            reach[j] |= reach[j - 1] & col
    return reach[threshold]


class RefModel:
    """Shared explanation semantics on top of ``cls`` and ``forces``."""

    names: list[str]
    n: int

    def cls(self, e: int) -> int:
        raise NotImplementedError

    def forces(self, mask: int, value: int, c: int) -> bool:
        """Does every example agreeing with ``value`` on ``mask`` get class c?"""
        raise NotImplementedError

    def has_class(self, c: int) -> bool:
        raise NotImplementedError

    @property
    def all_features(self) -> int:
        return (1 << self.n) - 1

    def explains(self, kind: str, target, mask: int, value: int = 0) -> bool:
        """Is the candidate an explanation?  Local kinds take the feature set
        as ``mask`` and the example as ``target``; global kinds take a
        partial example as ``(mask, value)`` and a class as ``target``."""
        if kind == "laxp":
            return self.forces(mask, target & mask, self.cls(target))
        if kind == "lcxp":
            keep = self.all_features ^ mask
            return not self.forces(keep, target & keep, self.cls(target))
        if kind == "gaxp":
            return self.forces(mask, value, target)
        return self.forces(mask, value, 1 - target)

    def exists(self, kind: str, target) -> bool:
        """Does any explanation exist at all?"""
        if kind == "laxp":
            return True
        if kind == "lcxp":
            return self.has_class(1 - self.cls(target))
        return self.has_class(target if kind == "gaxp" else 1 - target)

    def min_card(self, kind: str, target, k: int) -> Optional[int]:
        """Smallest explanation size up to k, or None."""
        if kind == "lcxp":
            # a smallest contrastive set is itself a flip that changes the class
            cls = self.cls(target)
            for pick in subsets(self.n, k):
                if self.cls(target ^ bits_of(pick)) != cls:
                    return len(pick)
            return None
        for pick in subsets(self.n, k):
            mask = bits_of(pick)
            if kind == "laxp":
                if self.explains(kind, target, mask):
                    return len(pick)
                continue
            for a in range(1 << len(pick)):
                value = sum(((a >> j) & 1) << f for j, f in enumerate(pick))
                if self.explains(kind, target, mask, value):
                    return len(pick)
        return None

    def differs_within(self, k: Optional[int]) -> bool:
        """Is some example with at most k ones (any, for None) classified
        unlike the all-zero example?"""
        if k is None:
            return self.has_class(1 - self.cls(0))
        base = self.cls(0)
        return any(self.cls(bits_of(pick)) != base for pick in subsets(self.n, k))


class TableModel(RefModel):
    def __init__(self, doc: dict) -> None:
        self.names = list(doc["universe"])
        self.index = {name: i for i, name in enumerate(self.names)}
        self.n = len(self.names)
        self.full = (1 << (1 << self.n)) - 1
        self._cols: dict[int, int] = {}
        self.table = self._body(doc["model"])

    def col(self, f: int) -> int:
        """Positions where feature f is 1, built by doubling one period."""
        if f not in self._cols:
            width = 1 << (f + 1)
            col = ((1 << (1 << f)) - 1) << (1 << f)
            while width < (1 << self.n):
                col |= col << width
                width <<= 1
            self._cols[f] = col
        return self._cols[f]

    def cube(self, mask: int, value: int) -> int:
        out = self.full
        for f in range(self.n):
            if (mask >> f) & 1:
                out &= self.col(f) if (value >> f) & 1 else self.full ^ self.col(f)
        return out

    def _term(self, term) -> int:
        mask = value = 0
        for name, b in term:
            f = self.index[name]
            mask |= 1 << f
            value |= int(b) << f
        return self.cube(mask, value)

    def _body(self, body: dict) -> int:
        (tag, payload), = body.items()
        if tag == "ds":
            fired = 0
            for term in payload["terms"]:
                fired |= self._term(term)
            return self.full ^ fired if payload["default"] else fired
        if tag == "dl":
            table, undecided = 0, self.full
            for term, c in payload["rules"]:
                hit = undecided & self._term(term)
                if c:
                    table |= hit
                undecided &= self.full ^ hit
            return table
        if tag == "ensemble":
            cols = [self._body(el) for el in payload["elements"]]
            return at_least(cols, len(cols) // 2 + 1, self.full)
        if tag == "circuit":
            return self._circuit(payload)
        raise ValueError(f"no table form for model tag {tag!r}")

    def _circuit(self, payload: dict) -> int:
        gates = {int(g["id"]): g for g in payload["gates"]}
        feature_of = {int(gid): self.index[name] for name, gid in payload["inputs"].items()}
        value: dict[int, int] = {}
        stack = [int(payload["output"])]
        while stack:
            gid = stack[-1]
            if gid in value:
                stack.pop()
                continue
            ins = [int(j) for j in gates[gid].get("in", ())]
            pending = [j for j in ins if j not in value]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            kind = gates[gid]["kind"]
            if kind == "IN":
                value[gid] = self.col(feature_of[gid])
            elif kind == "NOT":
                value[gid] = self.full ^ value[ins[0]]
            elif kind == "AND":
                acc = self.full
                for j in ins:
                    acc &= value[j]
                value[gid] = acc
            elif kind == "OR":
                acc = 0
                for j in ins:
                    acc |= value[j]
                value[gid] = acc
            elif kind == "MAJ":
                threshold = int(gates[gid]["threshold"])
                value[gid] = at_least([value[j] for j in ins], threshold, self.full)
            else:
                raise ValueError(f"unknown gate kind {kind!r}")
        return value[int(payload["output"])]

    def cls(self, e: int) -> int:
        return (self.table >> e) & 1

    def forces(self, mask: int, value: int, c: int) -> bool:
        cube = self.cube(mask, value)
        return self.table & cube == (cube if c else 0)

    def has_class(self, c: int) -> bool:
        return self.table != (0 if c else self.full)


Path = tuple[int, int, int]  # (mask of tested features, their values, label)


class PathModel(RefModel):
    def __init__(self, doc: dict) -> None:
        self.names = list(doc["universe"])
        self.index = {name: i for i, name in enumerate(self.names)}
        self.n = len(self.names)
        (tag, payload), = doc["model"].items()
        if tag == "dt":
            self.paths = self._tree(payload)
        elif tag == "ensemble" and payload["family"] == "dt":
            self.paths = self._product([self._tree(el["dt"]) for el in payload["elements"]])
        else:
            raise ValueError("leaf paths need a tree or a tree ensemble")

    def _tree(self, payload: dict) -> list[Path]:
        """Reachable leaves.  A feature tested again below an earlier test
        of it continues on the consistent branch only: the other one is
        unreachable."""
        nodes = payload["nodes"]
        out: list[Path] = []
        stack = [(int(payload.get("root", 0)), 0, 0)]
        while stack:
            i, mask, value = stack.pop()
            node = nodes[i]
            if "leaf" in node:
                out.append((mask, value, int(node["leaf"])))
                continue
            f = self.index[node["test"]]
            if (mask >> f) & 1:
                stack.append((node["if1"] if (value >> f) & 1 else node["if0"], mask, value))
                continue
            stack.append((node["if1"], mask | (1 << f), value | (1 << f)))
            stack.append((node["if0"], mask | (1 << f), value))
        return out

    @staticmethod
    def _product(elements: list[list[Path]]) -> list[Path]:
        """One merged path per tuple of mutually consistent element leaves,
        labelled with the majority of their labels."""
        merged = [(0, 0, 0)]  # the third slot counts votes while merging
        for paths in elements:
            merged = [
                (m1 | m2, v1 | v2, votes + label)
                for m1, v1, votes in merged
                for m2, v2, label in paths
                if not m1 & m2 & (v1 ^ v2)
            ]
        need = len(elements) // 2 + 1
        return [(m, v, int(votes >= need)) for m, v, votes in merged]

    def cls(self, e: int) -> int:
        for mask, value, label in self.paths:
            if not mask & (value ^ e):
                return label
        raise AssertionError("leaf paths do not cover the example")

    def forces(self, mask: int, value: int, c: int) -> bool:
        return all(
            pm & mask & (pv ^ value) for pm, pv, label in self.paths if label != c
        )

    def has_class(self, c: int) -> bool:
        return any(label == c for _, _, label in self.paths)


def load(doc: dict) -> RefModel:
    (tag, payload), = doc["model"].items()
    if tag == "dt" or (tag == "ensemble" and payload["family"] == "dt"):
        return PathModel(doc)
    return TableModel(doc)
