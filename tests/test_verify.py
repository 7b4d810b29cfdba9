import json

import pytest

from fockspace.verify import (
    DEFAULT_SEED,
    SUITES,
    check_confluence,
    check_connectivity,
    check_core_well_defined,
    check_rim_hooks_agree,
    run_verify,
)


@pytest.mark.parametrize("suite", sorted(SUITES))
@pytest.mark.parametrize("e", [0, 2, 3])
def test_each_suite_passes_at_small_parameters(suite, e):
    report = run_verify(suite, e, 4, DEFAULT_SEED)
    failing = [r for r in report.results if not r.passed]
    assert not failing, failing


def test_run_all_collects_every_suite():
    report = run_verify("all", 3, 3, DEFAULT_SEED)
    assert {r.suite for r in report.results} == set(SUITES)
    # report order is fixed by suite name
    suites_in_order = [r.suite for r in report.results]
    assert suites_in_order == sorted(suites_in_order)
    assert report.passed


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_verify("nope", 2, 3)
    with pytest.raises(ValueError):
        run_verify("all", 1, 3)
    with pytest.raises(ValueError):
        run_verify("all", 2, -1)


def test_report_json_is_seed_stable():
    a = run_verify("hecke", 2, 3, 99).json_dict()
    b = run_verify("hecke", 2, 3, 99).json_dict()
    assert json.dumps(a) == json.dumps(b)


def test_timings_are_opt_in():
    report = run_verify("casimir", 2, 3, DEFAULT_SEED)
    plain = report.json_dict()
    timed = report.json_dict(include_timings=True)
    assert "elapsed" not in plain["results"][0]
    assert "elapsed" in timed["results"][0]


def test_counterexamples_are_none_on_pass():
    report = run_verify("crystal", 2, 4, DEFAULT_SEED)
    assert all(r.counterexample is None for r in report.results)


def test_confluence_reference():
    assert check_confluence(8) is None


def test_connectivity_both_regimes():
    assert check_connectivity(0, 6) is None
    assert check_connectivity(2, 6) is None
    assert check_connectivity(3, 6) is None


@pytest.mark.parametrize("e", [2, 3])
def test_exhaustive_hook_removal_well_defined(e):
    assert check_core_well_defined(e, 6) is None


def test_blocks_suite_checks_the_abacus_rim_hooks():
    for e in (0, 2, 3, 5):
        report = run_verify("blocks", e, 12, DEFAULT_SEED)
        (result,) = [r for r in report.results if r.name == "rim_hooks_agree"]
        assert result.passed and result.params == {"modulus": e, "max_size": 10}


def test_rim_hooks_agree_catches_a_wrong_rim_order(monkeypatch):
    import fockspace.verify as verify_module

    original = verify_module.removable_rim_hooks
    monkeypatch.setattr(
        verify_module, "removable_rim_hooks", lambda p, length: original(p, length)[::-1]
    )
    assert check_rim_hooks_agree(2, 4) == "lambda=[2,2], length=2"
