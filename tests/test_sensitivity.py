"""Sensitivity table: how small an error in each numeric kernel the default
suite catches.

Each kernel is wrapped to return out * (1 + eps v), v a standard normal per
entry from a seeded generator, and patched into every module that binds its
name; the package gains no hook.  A constant factor would be invisible to
every homogeneous law, so each entry is perturbed on its own.  A kernel is
caught at eps when the default suite exits nonzero.
"""
import importlib
import pkgutil

import numpy as np
import pytest

import mockmod
from mockmod import SuiteConfig, run_suite

EPSILONS = (1e-11, 1e-9, 1e-7)

# kernel -> (home module, smallest eps the default suite catches)
KERNELS = {
    "theta_value": ("special", 1e-7),
    "eta_value": ("special", 1e-11),
    "e2_value": ("special", 1e-11),
    "e2_completed": ("special", 1e-7),
    "eval_qseries": ("special", 1e-11),
    "zwegers_S_columns": ("jets", 1e-11),
}

# the transformation checks that read each kernel directly: each catches
# eps = 1e-7 in its own kernel
OWN_CHECKS = {
    "theta_value": {"theta.elliptic", "theta.modular", "joyce.theta-star"},
    "eta_value": {"theta.eta-multiplier"},
    "e2_value": {"theta.e2-shift", "theta.e2-completed", "theta.taylor-rho"},
    "e2_completed": {"theta.e2-completed"},
    "eval_qseries": {"rank.transform", "joyce.transform"},
    "zwegers_S_columns": {"appell.elliptic-shift", "appell.modular",
                          "appell.torsion-points", "rank.transform"},
}


def perturbed(real, eps: float):
    rng = np.random.default_rng(0)

    def kernel(*args, **kwargs):
        out = real(*args, **kwargs)
        noisy = out * (1.0 + eps * rng.standard_normal(np.shape(out)))
        return noisy if isinstance(out, np.ndarray) else complex(noisy)
    return kernel


@pytest.fixture(scope="module")
def failing():
    """(kernel, eps) -> ids of the checks the perturbed suite fails."""
    modules = [mockmod] + [importlib.import_module(f"mockmod.{info.name}")
                           for info in pkgutil.iter_modules(mockmod.__path__)
                           if info.name != "__main__"]
    run_suite(SuiteConfig())  # warm the exact caches once
    table = {}
    for name, (home, _) in KERNELS.items():
        real = getattr(importlib.import_module(f"mockmod.{home}"), name)
        for eps in EPSILONS:
            with pytest.MonkeyPatch.context() as mp:
                kernel = perturbed(real, eps)
                for mod in modules:
                    if getattr(mod, name, None) is real:
                        mp.setattr(mod, name, kernel)
                reports, code = run_suite(SuiteConfig())
            table[name, eps] = {r.check_id for r in reports
                                if r.verdict != "pass"}
            assert bool(code) == bool(table[name, eps])
    return table


def test_smallest_caught_error_per_kernel(failing):
    smallest = {name: min((eps for eps in EPSILONS if failing[name, eps]),
                          default=None)
                for name in KERNELS}
    assert smallest == {name: eps for name, (_, eps) in KERNELS.items()}


def test_transformation_checks_catch_their_own_kernel(failing):
    for name, checks in OWN_CHECKS.items():
        assert checks <= failing[name, 1e-7], name


def test_unperturbed_suite_passes_after_the_probe(failing):
    _, code = run_suite(SuiteConfig())
    assert code == 0
