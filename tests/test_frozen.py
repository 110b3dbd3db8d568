"""The value objects are frozen and the arrays they hold are read-only: a
field assignment, or a write into a mask's gains or a report's errors,
raises."""

import dataclasses

import numpy as np
import pytest

from rpt.io import Signal
from rpt.metrics import SuppressionReport
from rpt.notch import design_notch
from rpt.ramanujan import circulant, ramanujan_sum, shift_basis
from rpt.suppress import SuppressionConfig, make_mask
from rpt.transform import CoefficientVector, build_plan

MAKERS = {
    "Signal": lambda: Signal(samples=np.zeros(4), fs=360.0),
    "BiquadCoeffs": lambda: design_notch(50.0, 360.0, 1.0),
    "SuppressionConfig": lambda: SuppressionConfig(36, (50.0,), 360.0),
    "WindowMask": lambda: make_mask(build_plan(36), {36}),
    "CoefficientVector": lambda: CoefficientVector(plan_n=4, values=np.zeros(4)),
    "SuppressionReport": lambda: SuppressionReport(36, "rpt", np.zeros(3)),
    "RamanujanSequence": lambda: ramanujan_sum(4),
    "CirculantDm": lambda: circulant(4),
    "ShiftBasis": lambda: shift_basis(2, 4),
}


@pytest.mark.parametrize("name", MAKERS)
def test_assigning_any_field_raises(name):
    instance = MAKERS[name]()
    assert type(instance).__name__ == name
    for field in dataclasses.fields(instance):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(instance, field.name, None)


@pytest.mark.parametrize(
    "name, field",
    [
        ("WindowMask", "gains"),
        ("SuppressionReport", "per_block_errors"),
        ("RamanujanSequence", "values"),
        ("CirculantDm", "entries"),
        ("ShiftBasis", "columns"),
    ],
)
def test_writing_into_a_held_array_raises(name, field):
    array = getattr(MAKERS[name](), field)
    with pytest.raises(ValueError, match="read-only"):
        array[0] = 1
