import functools

from bstar import clear_caches, homology, theorems
from bstar.constructions import corpus, cross_polytope

BUILTIN_ONLY_CHECKS = {"check_counterexample_fidelity", "check_orientability_dichotomy",
                       "check_ear_verifier", "check_m_hierarchy",
                       "check_skeleton_hierarchy"}


def test_battery_skips_builtin_only_checks_on_user_corpus(monkeypatch):
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
    # shapes after the battery on this corpus; ranked in place, 197
    clear_caches()
    assert all(res.passed for res in theorems.run_battery(entries))
    assert len(homology._shapes) < 672
