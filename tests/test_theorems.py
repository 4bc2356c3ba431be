import functools

from bstar import theorems
from bstar.constructions import cross_polytope

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
