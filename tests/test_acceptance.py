"""End-to-end acceptance gate.

Each test runs one check from :mod:`tnkit.verify` and prints its one-line
verdict even under pytest's capture, so a full run reads as a checklist:

    PASS  mps_roundtrip   25 states, max|psi'-psi|=...  [0.31s]
    ...

The checks themselves live in the package (``tnkit verify`` exposes them to
users); the tests here only assert that every one of them passes.
"""

import pytest

from tnkit.verify import CHECKS


def _run(name, capsys):
    res = CHECKS[name]()
    with capsys.disabled():
        print("\n" + res.one_line(), end="")
    assert res.passed, res.detail
    return res


def test_mps_roundtrip(capsys):
    _run("mps_roundtrip", capsys)


def test_svd_examples(capsys):
    _run("svd_examples", capsys)


def test_truncation_identity(capsys):
    _run("truncation_identity", capsys)


def test_gauge_invariance(capsys):
    _run("gauge_invariance", capsys)


def test_mpo_kron_oracle(capsys):
    _run("mpo_kron_oracle", capsys)


def test_tebd_ground_energy(capsys):
    _run("tebd_ground_energy", capsys)


def test_trotter_order(capsys):
    _run("trotter_order", capsys)


def test_trg_torus_exactness(capsys):
    _run("trg_torus_exactness", capsys)


def test_correlation_length(capsys):
    _run("correlation_length", capsys)


def test_mera_optimality(capsys):
    _run("mera_optimality", capsys)


def test_contraction_oracle(capsys):
    _run("contraction_oracle", capsys)


def test_ed_iterative(capsys):
    _run("ed_iterative", capsys)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
