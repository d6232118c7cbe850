"""End-to-end acceptance gate.

One test per check in :data:`tnkit.verify.CHECKS`, named ``test_<check>``,
so a check added there is gated here with no hand-written wrapper. Each test
prints its check's one-line verdict even under pytest's capture, so a full
run reads as a checklist:

    PASS  mps_roundtrip   25 states, max|psi'-psi|=...  [0.31s]
    ...

The checks themselves live in the package (``tnkit verify`` exposes them to
users); the tests here only assert that every one of them passes, and that
the registry keeps its order and suites.
"""

import pytest

from tnkit.verify import CHECKS, SUITES


def _gate(name):
    def test(capsys):
        res = CHECKS[name]()
        with capsys.disabled():
            print("\n" + res.one_line(), end="")
        assert res.passed, res.detail

    test.__name__ = test.__qualname__ = f"test_{name}"
    return test


# module-level names, so the test IDs are test_mps_roundtrip, test_svd_examples, ...
for _name in CHECKS:
    globals()[f"test_{_name}"] = _gate(_name)


def test_registry_order_is_pinned():
    assert list(CHECKS) == [
        "mps_roundtrip", "svd_examples", "truncation_identity", "gauge_invariance", "mpo_kron_oracle",
        "tebd_ground_energy", "trotter_order", "tebd_charge_sectors", "trg_torus_exactness",
        "correlation_length", "mera_optimality", "contraction_oracle", "ed_iterative",
    ]
    assert SUITES == {
        "core": ["svd_examples", "truncation_identity", "mera_optimality", "contraction_oracle"],
        "mps": ["mps_roundtrip", "gauge_invariance", "mpo_kron_oracle"],
        "tebd": ["tebd_ground_energy", "trotter_order", "tebd_charge_sectors", "correlation_length"],
        "trg": ["trg_torus_exactness"],
        "ed": ["ed_iterative"],
        "all": list(CHECKS),
    }
    assert list(SUITES) == ["core", "mps", "tebd", "trg", "ed", "all"]


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
