"""Result and model classes hold numpy arrays, so they compare by identity.

A generated dataclass __eq__ compares field tuples, which for arrays asks
the truth value of an elementwise comparison and raises. These classes
keep object equality (and, frozen, object hashing) instead.
"""

import dataclasses

import numpy as np
import pytest

from gaugefix.evolution import DiagnosticsSeries, FiniteSeries, evolve, evolve_finite
from gaugefix.fields import FieldState, SparseSpectrum, plane_wave_spectrum
from gaugefix.phase import HamiltonianSystem, QuadraticLagrangian, quadratic_function
from gaugefix.symbols import (
    DirectionSample,
    SymbolReport,
    analyze_symbol,
    maxwell_gauge_fixed_symbol,
)
from gaugefix.toys import ToyModel, chain_demo
from oracles import plane_wave_initial_data


def wave():
    return plane_wave_initial_data((1, 0, 0), (0, 1, 0), grid_n=8)


def oscillator_run():
    system = HamiltonianSystem.canonical(1, quadratic_function(np.eye(2)))
    return evolve_finite(system, [1.0, 0.0], 0.1, 0.5)


def symbol_report():
    return analyze_symbol(maxwell_gauge_fixed_symbol())


FACTORIES = {
    DiagnosticsSeries: lambda: evolve(wave(), "canonical", "rk4", 0.1, 0.5),
    FiniteSeries: oscillator_run,
    FieldState: wave,
    SparseSpectrum: lambda: plane_wave_spectrum((1, 0, 0), (0, 1, 0), grid_n=8),
    SymbolReport: symbol_report,
    DirectionSample: lambda: symbol_report().samples[0],
    ToyModel: chain_demo,
    QuadraticLagrangian: lambda: QuadraticLagrangian(np.eye(2), np.zeros((2, 2)), np.eye(2)),
}


@pytest.mark.parametrize("cls", FACTORIES, ids=lambda cls: cls.__name__)
def test_equality_is_identity(cls):
    x, y = FACTORIES[cls](), FACTORIES[cls]()
    assert type(x) is type(y) is cls
    assert (x == y) is False and x != y
    assert x == x
    if cls.__dataclass_params__.frozen:
        assert hash(x) == hash(x)
        assert len({x, y}) == 2
    assert dataclasses.is_dataclass(x)
