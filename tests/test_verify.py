import json
import subprocess
import sys

from habitree.verify import DEFAULT_MANIFEST, SUITES, run_suites


def test_default_manifest_names_known_suites():
    assert set(DEFAULT_MANIFEST) == set(SUITES)


def test_small_run_all_pass():
    rep = run_suites({"tree-tower": 5, "perturbed-spd": 5, "walras": 3}, seed=99)
    assert rep["all_passed"]
    assert [s["name"] for s in rep["suites"]] == sorted(s["name"] for s in rep["suites"])


def test_unknown_suite_rejected():
    import pytest
    with pytest.raises(ValueError):
        run_suites({"no-such-suite": 1}, seed=1)


def test_two_fresh_verify_processes_print_the_same_bytes(tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"suites": {"tree-tower": 3}}))
    out1, out2 = (subprocess.run([sys.executable, "-m", "habitree.cli", "verify",
                                  "--input", str(manifest), "--seed", "3"],
                                 capture_output=True) for _ in range(2))
    assert out1.returncode == out2.returncode == 0
    assert out1.stdout == out2.stdout


def test_suite_runner_counts_a_raising_instance_as_failed():
    from habitree.errors import ConditionError
    from habitree.verify import _suite

    outcomes = iter([(0.5, True), None, (0.25, False), (0.125, True)])

    def check(rng):
        out = next(outcomes)
        if out is None:
            raise ConditionError("instance rejected")
        return out

    res = _suite("tree-tower", check)(1, 4)
    assert (res.name, res.instances, res.passed, res.failed, res.worst) == \
        ("tree-tower", 4, 2, 2, 0.5)


def test_suites_map_names_to_seed_count_runners():
    import inspect

    for name, run in SUITES.items():
        assert list(inspect.signature(run).parameters) == ["seed", "count"]
        res = run(5, 0)
        assert (res.name, res.instances, res.passed, res.failed, res.worst) == (name, 0, 0, 0, 0.0)
