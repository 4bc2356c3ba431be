"""The benchmark's workloads: bstar CLI commands and their expected answers.

Every expected answer below is written down from topology, not copied
from a bstar run.  A command's output is reduced to the part that the
answer fixes (``timings`` in ``check`` output vary from run to run and
witnesses are wording, so both are left out) and compared with it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

FIELDS = ["q", "gf:2"]
VERDICTS = ("buchsbaum", "buchsbaum*", "cohen_macaulay", "doubly_buchsbaum",
            "doubly_cohen_macaulay", "gorenstein*", "homology_manifold",
            "orientable_manifold")
# A sphere has every property of the hierarchy, over every field.
SPHERE = dict.fromkeys(VERDICTS, True)
# S^1 x S^2 is a closed orientable 3-manifold with H_1 != 0: every link is
# a sphere (Buchsbaum, Buchsbaum*, doubly Buchsbaum, manifold) but the
# whole complex is not acyclic below the top (not CM, so not doubly CM
# and not Gorenstein*).
S1_X_S2 = {**SPHERE, "cohen_macaulay": False, "doubly_cohen_macaulay": False,
           "gorenstein*": False}
# The staircase product of cycle3 (3 edges) and simplex_boundary:3
# (4 triangles) has 3 * 4 = 12 vertices and 3 * 4 * C(3,1) = 36
# tetrahedra.  In a closed 3-manifold every triangle lies in two
# tetrahedra, so f_2 = 2 * 36 = 72, and Euler characteristic 0 gives
# f_1 = f_0 + f_2 - f_3 = 48.
S1_X_S2_F = (1, 12, 48, 72, 36)
# `bstar construct corpus DIR` writes these 23 files into DIR/corpus-v1/.
CORPUS_FILES = sorted(f"{name}.json" for name in (
    "s0", "cycle3", "cycle4", "cycle5", "cycle6", "path3", "simplex2",
    "simplex_boundary3", "simplex_boundary4", "cross_polytope3",
    "cross_polytope4", "stacked_6_3", "stacked_7_3", "cone_octahedron",
    "torus7", "rp2_6", "example_2_10_i", "example_2_10_iii", "bowtie",
    "two_spheres", "product_cycle3_cycle3", "product_cycle3_sb3",
    "octahedron_with_membrane"))


def cycle_f(n: int) -> tuple[int, ...]:
    return (1, n, n)


def stacked_2sphere_f(n: int) -> tuple[int, ...]:
    """A triangulated 2-sphere on n vertices: 3n-6 edges, 2n-4 triangles."""
    return (1, n, 3 * n - 6, 2 * n - 4)


def cross_polytope_f(d: int) -> tuple[int, ...]:
    """f_i = 2^(i+1) C(d, i+1) for i = -1 .. d-1."""
    return tuple(2 ** (i + 1) * comb(d, i + 1) for i in range(-1, d))


def summary(f: tuple[int, ...]) -> dict:
    """The CLI's complex summary of a pure complex with f-vector f."""
    return {"n_vertices": f[1], "dim": len(f) - 2, "n_facets": f[-1],
            "f_vector": list(f)}


@dataclass(frozen=True)
class Command:
    """One bstar invocation, the part of its JSON output that is checked,
    and the value that part must have."""

    argv: tuple[str, ...]
    project: Callable[[dict], object]
    expected: object

    def problems(self, returncode: int, stdout: str) -> list[str]:
        if returncode != 0:
            return [f"exit code {returncode}"]
        try:
            got = self.project(json.loads(stdout))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return [f"unreadable output: {exc!r}"]
        if got != self.expected:
            return [f"expected {self.expected!r}, got {got!r}"]
        return []


def _check_part(out: dict):
    return {"complex": out["complex"],
            "reports": [{"field": r["field"], "verdicts": r["verdicts"]}
                        for r in out["reports"]]}


def _check(target: str, f: tuple[int, ...], verdicts: dict) -> Command:
    return Command(("check", target), _check_part,
                   {"complex": summary(f),
                    "reports": [{"field": fld, "verdicts": verdicts} for fld in FIELDS]})


def _homology_part(out: dict):
    return {"complex": out["complex"], "homology": out["homology"]}


def _sphere_homology(target: str, d: int, fields: list[str]) -> Command:
    """cross_polytope:d is a (d-1)-sphere: reduced Betti (0, ..., 0, 1)."""
    betti = [0] * d + [1]
    argv = ("homology", target) + tuple(a for f in fields for a in ("--field", f))
    return Command(argv, _homology_part,
                   {"complex": summary(cross_polytope_f(d)),
                    "homology": [{"betti": betti, "field": f} for f in fields]})


def _verify_part(out: dict):
    return {"corpus": sorted(out["corpus"]), "fields": out["fields"],
            "unreadable": out["unreadable"], "all_passed": out["all_passed"],
            "ran_checks": bool(out["results"]),
            "failed_checks": sorted(n for n, r in out["results"].items()
                                    if not r["passed"])}


def _written_summary(out: dict):
    return out["complex"]


def _written_corpus(out: dict):
    written = [Path(p) for p in out["written"]]
    return {"dirs": sorted({p.parent.name for p in written}),
            "files": sorted(p.name for p in written)}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: Callable[[Path], list[Command]]


def setup_commands(inputs: Path) -> list[Command]:
    """Build every input file of every workload into `inputs`."""
    return [
        Command(("construct", "stacked", "24", "3", str(inputs / "stacked.json")),
                _written_summary, summary(stacked_2sphere_f(24))),
        Command(("construct", "product", "named:cycle3", "named:simplex_boundary:3",
                 str(inputs / "product.json")),
                _written_summary, summary(S1_X_S2_F)),
        Command(("construct", "corpus", str(inputs / "corpus")),
                _written_corpus, {"dirs": ["corpus-v1"], "files": CORPUS_FILES}),
    ]


def _verify_corpus(inputs: Path) -> list[Command]:
    # `construct corpus DIR` writes into DIR/corpus-v1/, and `verify` on a
    # directory without files passes on an empty corpus, so the command
    # points at the subdirectory and the check demands all 23 entries.
    return [Command(("verify", str(inputs / "corpus" / "corpus-v1")),
                    _verify_part,
                    {"corpus": CORPUS_FILES, "fields": FIELDS, "unreadable": [],
                     "all_passed": True, "ran_checks": True, "failed_checks": []})]


WORKLOADS = {w.name: w for w in (
    Workload(
        "check-sparse",
        "many vertices, few faces: the C(n,k) vertex-subset sweep in predicates "
        "dominates and linear algebra is small",
        lambda inputs: [_check("named:cycle:32", cycle_f(32), SPHERE),
                        _check(str(inputs / "stacked.json"), stacked_2sphere_f(24), SPHERE)]),
    Workload(
        "check-dense",
        "the Buchsbaum* contrastar sweep drives many medium eliminations: "
        "linalg and complex building dominate",
        lambda inputs: [_check("named:cross_polytope:5", cross_polytope_f(5), SPHERE),
                        _check(str(inputs / "product.json"), S1_X_S2_F, S1_X_S2)]),
    Workload(
        "homology-large",
        "a few huge dense boundary matrices over Q, GF(2) and GF(3): elimination "
        "only, and the bypass case for complex-core changes",
        lambda inputs: [_sphere_homology("named:cross_polytope:8", 8, FIELDS),
                        _sphere_homology("named:cross_polytope:7", 7, ["gf:3"])]),
    Workload(
        "verify-corpus",
        "the battery on 23 exported files: many small calls through caches, "
        "file input, theorems, vectors and rigidity",
        _verify_corpus),
)}
