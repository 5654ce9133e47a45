"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
failure report) and asserts the criterion outcome.  ``acceptance.run`` times
each check, as it does for the ``cardioshape eval`` command.
"""

import pytest

from cardioshape import acceptance


def _run(number, *args):
    result = acceptance.run(number, *args)
    print(result.line())
    return result


def test_criterion_01_ffd_correctness():
    result = _run(1)
    assert result.passed, result.detail
    assert result.runtime < 10


def test_criterion_02_loss_oracles():
    result = _run(2)
    assert result.passed, result.detail
    assert result.runtime < 30


@pytest.mark.slow
def test_criterion_03_motion_correction():
    result = _run(3)
    assert result.passed, result.detail
    assert result.runtime < 300


@pytest.mark.slow
def test_criterion_04_self_reconstruction():
    result = _run(4)
    assert result.passed, result.detail
    assert result.runtime < 300


def test_criterion_05_incremental_pca():
    result = _run(5)
    assert result.passed, result.detail
    assert result.runtime < 10


@pytest.mark.slow
def test_criterion_06_ssm_curves():
    result = _run(6)
    assert result.passed, result.detail
    assert result.runtime < 180


@pytest.mark.slow
def test_criterion_07_contour_recovery():
    result = _run(7)
    assert result.passed, result.detail
    assert result.runtime < 180


def test_criterion_08_phenotype_oracles():
    result = _run(8)
    assert result.passed, result.detail
    assert result.runtime < 30


def test_criterion_09_population_analytics():
    result = _run(9)
    assert result.passed, result.detail
    assert result.runtime < 180


@pytest.mark.slow
def test_criterion_10_end_to_end_determinism(tmp_path):
    result = _run(10, tmp_path)
    assert result.passed, result.detail
    assert result.runtime < 900
