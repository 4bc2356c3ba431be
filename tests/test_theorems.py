import functools
import gc
import os
import time

import pytest

from bstar import clear_caches, homology, theorems
from bstar.cli import _read_complex_file, main
from bstar.constructions import corpus, cross_polytope
from bstar.properties import is_buchsbaum_star

BUILTIN_ONLY_CHECKS = {"check_counterexample_fidelity", "check_orientability_dichotomy",
                       "check_ear_verifier", "check_m_hierarchy",
                       "check_skeleton_hierarchy"}


def workers(monkeypatch, n):
    """Run the battery on `n` workers, whatever the CPUs of this machine."""
    monkeypatch.setattr(theorems, "_usable_cpus", lambda: n)


def verdicts(results):
    return [(res.name, res.passed, res.details) for res in results]


def test_battery_skips_builtin_only_checks_on_user_corpus(monkeypatch):
    # in process, so on one worker: a spy in a child appends to its own list
    workers(monkeypatch, 1)
    called = []

    def spy(chk):
        @functools.wraps(chk)
        def run(*args, **kwargs):
            called.append(chk.__name__)
            return chk(*args, **kwargs)
        return run

    monkeypatch.setattr(theorems, "ALL_CHECKS", [spy(chk) for chk in theorems.ALL_CHECKS])
    results = theorems.run_battery([("cycle4", cross_polytope(2))])
    expected = [chk.__name__ for chk in theorems.ALL_CHECKS
                if chk.__name__ not in BUILTIN_ONLY_CHECKS]
    assert called == expected
    assert len(results) == len(expected)
    assert all(res.passed for res in results)


def test_contrastar_checks_rank_in_place(monkeypatch):
    def refuse(*args):
        raise AssertionError("a contrastar was built")

    entries = list(corpus())
    monkeypatch.setattr(theorems, "contrastar", refuse)
    assert theorems.check_surjectivity_oracle(entries, theorems.DEFAULT_FIELDS).passed
    probe = theorems.check_facet_shortcut_probe(entries, theorems.DEFAULT_FIELDS)
    assert probe.passed and probe.details == [
        "facet-only shortcut is NOT sound; differs on: "
        "example_2_10_i over q, example_2_10_i over gf:2"]
    monkeypatch.undo()
    # with a contrastar rebuilt for every face, the shape table held 672
    # shapes after the battery on this corpus; ranked in place, 197.  On
    # one worker, so the table here holds the shapes of every check.
    workers(monkeypatch, 1)
    clear_caches()
    assert all(res.passed for res in theorems.run_battery(entries))
    assert len(homology._shapes) < 672


def test_battery_on_a_pool_skips_builtin_only_checks(monkeypatch, tmp_path):
    # the spy appends to a file, so the calls made in a child count too
    log = tmp_path / "called"

    def spy(chk):
        @functools.wraps(chk)
        def run(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(chk.__name__ + "\n")
            return chk(*args, **kwargs)
        return run

    workers(monkeypatch, 2)
    monkeypatch.setattr(theorems, "ALL_CHECKS", [spy(chk) for chk in theorems.ALL_CHECKS])
    results = theorems.run_battery([("cycle4", cross_polytope(2))])
    expected = [chk.__name__ for chk in theorems.ALL_CHECKS
                if chk.__name__ not in BUILTIN_ONLY_CHECKS]
    assert sorted(log.read_text().split()) == sorted(expected)
    assert len(results) == len(expected)
    assert all(res.passed for res in results)


@pytest.mark.parametrize("names_too", [False, True], ids=["list", "list-and-names"])
def test_wrapped_checks_keep_their_arguments(monkeypatch, names_too):
    # the benchmark's tracer wraps every check with functools.wraps, in
    # ALL_CHECKS and under its name in the module
    received = {}

    def spy(chk):
        @functools.wraps(chk)
        def run(entries, fields, **kwargs):
            received[chk.__name__] = kwargs
            return theorems.TheoremResult(chk.__name__, True)
        return run

    workers(monkeypatch, 1)
    wrapped = [spy(chk) for chk in theorems.ALL_CHECKS]
    monkeypatch.setattr(theorems, "ALL_CHECKS", wrapped)
    if names_too:
        for chk in wrapped:
            monkeypatch.setattr(theorems, chk.__name__, chk)
    theorems.run_battery(seed=7)
    assert received["check_cm_collapse"] == {"minimum_slice": 12}
    assert received["check_flag_bounds"] == {
        "expect_equality": ("cycle4", "cross_polytope3", "cross_polytope4")}
    assert received["check_rigidity_connectivity"] == {"seed": 7}
    theorems.run_battery([("cycle4", cross_polytope(2))], seed=3)
    assert received["check_cm_collapse"] == {"minimum_slice": 0}
    assert received["check_flag_bounds"] == {"expect_equality": ()}
    assert received["check_rigidity_connectivity"] == {"seed": 3}


@pytest.mark.parametrize("exported", [False, True], ids=["builtin", "exported"])
def test_pool_gives_the_results_of_one_worker(monkeypatch, capsys, tmp_path, exported):
    entries = None
    if exported:
        assert main(["construct", "corpus", str(tmp_path)]) == 0
        capsys.readouterr()
        files = sorted((tmp_path / "corpus-v1").iterdir())
        entries = [(p.name, _read_complex_file(str(p))) for p in files]
    runs = []
    for n in (1, 2):
        workers(monkeypatch, n)
        clear_caches()
        runs.append(verdicts(theorems.run_battery(entries)))
    assert runs[0] == runs[1]
    assert len(runs[0]) == (14 if exported else 19)


def report(results):
    """What `verify` reports of the results: each check's verdict and notes,
    by its name."""
    return {res.name: (res.passed, res.details) for res in results}


@pytest.mark.parametrize("n", [1, 2])
def test_the_report_does_not_depend_on_the_check_order(monkeypatch, n):
    # ALL_CHECKS lists the longest checks first, for the pool; the report
    # keys the results by name, so the reversed list gives the same report
    workers(monkeypatch, n)
    clear_caches()
    forward = report(theorems.run_battery())
    monkeypatch.setattr(theorems, "ALL_CHECKS", theorems.ALL_CHECKS[::-1])
    clear_caches()
    assert report(theorems.run_battery()) == forward
    assert gc.get_freeze_count() == 0  # the pool unfroze what it froze


def test_surjectivity_oracle_builds_each_boundary_column_once_per_degree(monkeypatch):
    c = cross_polytope(4)
    clear_caches()
    for f in theorems.DEFAULT_FIELDS:  # what the oracle memoises on its way, before the count
        homology.betti(c, f)
        is_buchsbaum_star(c, f)
    built = {}
    boundary = homology._boundary

    def counting_boundary(cells, rows):
        if type(rows) is not dict:  # a map of c, not of a star (`_star_top_cycles`)
            for m in cells:
                built[m.bit_count() - 1] = built.get(m.bit_count() - 1, 0) + 1
        return boundary(cells, rows)

    monkeypatch.setattr(homology, "_boundary", counting_boundary)
    entries = [("cross_polytope4", c)]
    assert theorems.check_surjectivity_oracle(entries, theorems.DEFAULT_FIELDS).passed
    # the contrastars of all 80 faces over both fields rank the maps out of
    # the 3-faces and the 2-faces, and read each column of them built once
    assert built == {3: 16, 2: 32}


def test_pool_raises_the_first_failing_check(monkeypatch):
    # every check from the fourth on fails, the fourth slowly, so a worker
    # that raised the first failure it met would often name a later check
    def failing(chk, index):
        @functools.wraps(chk)
        def run(*args, **kwargs):
            if index == 3:
                time.sleep(0.05)
            if index >= 3:
                raise ValueError(f"check {index} failed")
            return chk(*args, **kwargs)
        return run

    monkeypatch.setattr(theorems, "ALL_CHECKS",
                        [failing(chk, i) for i, chk in enumerate(theorems.ALL_CHECKS)])
    for n in (1, 2, 2, 2):
        workers(monkeypatch, n)
        with pytest.raises(ValueError, match="^check 3 failed$"):
            theorems.run_battery([("cycle4", cross_polytope(2))])


def child_spy(chk, log, parent, act):
    """`chk`, which does `act` in a worker other than `parent` and is slowed
    in the parent, so that a child claims some checks."""
    @functools.wraps(chk)
    def run(*args, **kwargs):
        if os.getpid() == parent:
            time.sleep(0.02)
            return chk(*args, **kwargs)
        with open(log, "a") as fh:
            fh.write(chk.__name__ + "\n")
        act()
        return chk(*args, **kwargs)
    return run


def raise_error():
    raise RuntimeError("only in a child")


@pytest.mark.parametrize("act", [raise_error, lambda: os._exit(1)], ids=["raises", "exits"])
def test_checks_lost_in_a_child_run_in_the_parent(monkeypatch, tmp_path, act):
    entries = [("cycle4", cross_polytope(2)), ("octahedron", cross_polytope(3))]
    workers(monkeypatch, 1)
    alone = verdicts(theorems.run_battery(entries))
    log = tmp_path / "child"
    checks = [child_spy(chk, log, os.getpid(), act) for chk in theorems.ALL_CHECKS]
    monkeypatch.setattr(theorems, "ALL_CHECKS", checks)
    workers(monkeypatch, 2)
    assert verdicts(theorems.run_battery(entries)) == alone
    assert log.read_text()  # a child claimed a check and lost it
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # and every child was reaped


class Interrupt(BaseException):
    pass


def test_an_interrupted_parent_leaves_no_child(monkeypatch):
    parent = os.getpid()

    def interrupt(chk):
        @functools.wraps(chk)
        def run(*args, **kwargs):
            if os.getpid() == parent:
                raise Interrupt
            time.sleep(5)  # a child still busy when the parent stops
        return run

    workers(monkeypatch, 2)
    monkeypatch.setattr(theorems, "ALL_CHECKS", [interrupt(chk) for chk in theorems.ALL_CHECKS])
    start = time.perf_counter()
    with pytest.raises(Interrupt):
        theorems.run_battery([("cycle4", cross_polytope(2))])
    assert time.perf_counter() - start < 4  # the child was killed, not waited for
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_one_cpu_never_forks(monkeypatch):
    def refuse():
        raise AssertionError("forked on one CPU")

    workers(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", refuse)
    assert all(res.passed for res in theorems.run_battery([("cycle4", cross_polytope(2))]))


def test_guard_error_is_the_same_on_a_pool(monkeypatch, capsys, tmp_path):
    assert main(["construct", "corpus", str(tmp_path)]) == 0
    capsys.readouterr()
    for n in (1, 2):
        workers(monkeypatch, n)
        assert main(["verify", str(tmp_path / "corpus-v1"), "--max-faces", "50"]) == 2
        assert capsys.readouterr() == ("", "error: complex exceeds the face guard of 50 faces\n")
