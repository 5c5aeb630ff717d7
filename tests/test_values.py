"""Value semantics of the package's record types.

Every value and result type is immutable and compares by value: the same
positional and keyword constructors with the same defaults, ``==`` only
between instances of one class, equal hashes for equal values, a fixed
``repr`` and AttributeError on assigning or deleting a field.
"""

import pytest

from lehmerlab.braid import BraidWord, BurauMat, EntropyEstimate, GeneratorRatios
from lehmerlab.dynamics import IntMatrix, PaddingResult, PerronCheck, SignedShiftSystem
from lehmerlab.freegroup import Endo, EndoGrowthReport, F2Descent, Word
from lehmerlab.polynomial import (
    IntPoly,
    IrreducibilityCertificate,
    LaurentPoly,
    MahlerResult,
    RootList,
)
from lehmerlab.sequence import (
    ExactSeq,
    GrowthEntry,
    GrowthReport,
    MaxGrowth,
    Periodicity,
    Recurrence,
    TailComparison,
)

_ROOTS = RootList((2j, -1.5), (1e-12, 0.5))
_FIB = Recurrence((-1, -1, 1), (1, 1))
_ENTRY = GrowthEntry(1, 2.0, None, None, 8)
_REPORT = GrowthReport((_ENTRY,), _FIB)
_RATIOS = GeneratorRatios(1, 2.0, (2.0, 2.0), 0.0)
_AB = Endo(2, (Word(2, ((1, 1), (2, 1))), Word(2, ((1, 1),))))

# (class, keyword arguments in field order, keyword arguments of a
# different value, repr of the first value)
CASES = [
    (IntPoly, {"coeffs": (1, 2)}, {"coeffs": (1, 3)}, "IntPoly(coeffs=(1, 2))"),
    (LaurentPoly, {"coeffs": (1, 2), "min_deg": -1}, {"coeffs": (1, 2), "min_deg": 0},
     "LaurentPoly(coeffs=(1, 2), min_deg=-1)"),
    (RootList, {"roots": (2j, -1.5), "radii": (1e-12, 0.5)},
     {"roots": (2j, -1.5), "radii": (1e-12, 0.25)},
     "RootList(roots=(2j, -1.5), radii=(1e-12, 0.5))"),
    (MahlerResult, {"value": 1.5, "lower": 1.25, "upper": 1.75, "exact": True, "roots": _ROOTS},
     {"value": 1.5, "lower": 1.25, "upper": 1.75, "exact": False, "roots": _ROOTS},
     "MahlerResult(value=1.5, lower=1.25, upper=1.75, exact=True, "
     "roots=RootList(roots=(2j, -1.5), radii=(1e-12, 0.5)))"),
    (IrreducibilityCertificate,
     {"status": "reducible", "witness_prime": None, "factor": IntPoly((1, 1))},
     {"status": "reducible", "witness_prime": None, "factor": IntPoly((-1, 1))},
     "IrreducibilityCertificate(status='reducible', witness_prime=None, "
     "factor=IntPoly(coeffs=(1, 1)))"),
    (ExactSeq, {"ints": (2, 4), "den": 6}, {"ints": (2, 4), "den": 5},
     "ExactSeq(ints=(1, 2), den=3)"),
    (Recurrence, {"char": (-1, -1, 1), "init": (1, 1)}, {"char": (-1, -1, 1), "init": (1, 3)},
     "Recurrence(coeffs=(-1, -1, 1), ints=(1, 1), den=1)"),
    (MaxGrowth, {"value": 1.5, "min_poly": _FIB}, {"value": 2.5, "min_poly": _FIB},
     "MaxGrowth(value=1.5, min_poly=Recurrence(coeffs=(-1, -1, 1), ints=(1, 1), den=1))"),
    (GrowthEntry, {"k": 1, "estimate": 2.0, "spread": None, "exact": None, "window": 8},
     {"k": 1, "estimate": 2.0, "spread": None, "exact": 2.0, "window": 8},
     "GrowthEntry(k=1, estimate=2.0, spread=None, exact=None, window=8)"),
    (GrowthReport, {"entries": (_ENTRY,), "min_poly": _FIB},
     {"entries": (_ENTRY,), "min_poly": None},
     "GrowthReport(entries=(GrowthEntry(k=1, estimate=2.0, spread=None, exact=None, "
     "window=8),), min_poly=Recurrence(coeffs=(-1, -1, 1), ints=(1, 1), den=1))"),
    (TailComparison, {"outside_a": (2j,), "outside_b": (), "agree": False},
     {"outside_a": (2j,), "outside_b": (2j,), "agree": True},
     "TailComparison(outside_a=(2j,), outside_b=(), agree=False)"),
    (Periodicity, {"preperiod": 1, "period": 2}, {"preperiod": 2, "period": 1},
     "Periodicity(preperiod=1, period=2)"),
    (IntMatrix, {"rows": ((1, 1), (1, 0))}, {"rows": ((1, 1), (0, 1))},
     "IntMatrix(rows=((1, 1), (1, 0)))"),
    (SignedShiftSystem, {"terms": ((1, IntMatrix(((2,),))),)},
     {"terms": ((-1, IntMatrix(((2,),))),)},
     "SignedShiftSystem(terms=((1, IntMatrix(rows=((2,),))),))"),
    (PerronCheck,
     {"integer_coeffs": True, "dominant_real": True, "net_traces_ok_up_to_n": 5,
      "net_traces_checked": 5, "first_negative_net": None},
     {"integer_coeffs": True, "dominant_real": True, "net_traces_ok_up_to_n": 3,
      "net_traces_checked": 5, "first_negative_net": 4},
     "PerronCheck(integer_coeffs=True, dominant_real=True, net_traces_ok_up_to_n=5, "
     "net_traces_checked=5, first_negative_net=None)"),
    (PaddingResult, {"phi": IntPoly((1, 1)), "indices": (2,), "net": (0, 1)},
     {"phi": IntPoly((1, 1)), "indices": (2,), "net": (0, 2)},
     "PaddingResult(phi=IntPoly(coeffs=(1, 1)), indices=(2,), net=(0, 1))"),
    (BraidWord, {"n": 3, "letters": (1, -2), "full_twist_power": 1},
     {"n": 3, "letters": (1, -2), "full_twist_power": 0},
     "BraidWord(n=3, letters=(1, -2), full_twist_power=1)"),
    (BurauMat, {"entries": ((LaurentPoly((1,)),),)}, {"entries": ((LaurentPoly((1,), 1),),)},
     "BurauMat(entries=((LaurentPoly(coeffs=(1,), min_deg=0),),))"),
    (GeneratorRatios, {"generator": 1, "estimate": 2.0, "last_ratios": (2.0, 2.0), "spread": 0.0},
     {"generator": 2, "estimate": 2.0, "last_ratios": (2.0, 2.0), "spread": 0.0},
     "GeneratorRatios(generator=1, estimate=2.0, last_ratios=(2.0, 2.0), spread=0.0)"),
    (EntropyEstimate,
     {"gr1": 2.0, "log_gr1": 0.5, "accelerated": False, "per_generator": (_RATIOS,)},
     {"gr1": 2.0, "log_gr1": 0.5, "accelerated": True, "per_generator": (_RATIOS,)},
     "EntropyEstimate(gr1=2.0, log_gr1=0.5, accelerated=False, per_generator="
     "(GeneratorRatios(generator=1, estimate=2.0, last_ratios=(2.0, 2.0), spread=0.0),))"),
    (Endo, {"rank": 2, "images": _AB.images}, {"rank": 2, "images": _AB.images[::-1]},
     "Endo(rank=2, images=(Word(2, ((1, 1), (2, 1))), Word(2, ((1, 1),))))"),
    (EndoGrowthReport, {"per_generator": (_REPORT,), "maxima": (1.0, 2.0), "k_max": 1},
     {"per_generator": (_REPORT,), "maxima": (1.0, None), "k_max": 1},
     "EndoGrowthReport(per_generator=(GrowthReport(entries=(GrowthEntry(k=1, estimate=2.0, "
     "spread=None, exact=None, window=8),), min_poly=Recurrence(coeffs=(-1, -1, 1), "
     "ints=(1, 1), den=1)),), maxima=(1.0, 2.0), k_max=1)"),
    (F2Descent, {"endo": _AB, "swapped": False, "ds": (1,), "columns": ((1, 0), (1, 1))},
     {"endo": _AB, "swapped": True, "ds": (1,), "columns": ((1, 0), (1, 1))},
     "F2Descent(endo=Endo(rank=2, images=(Word(2, ((1, 1), (2, 1))), Word(2, ((1, 1),)))), "
     "swapped=False, ds=(1,), columns=((1, 0), (1, 1)))"),
]

# The defaults, as (value built with them, the same value spelled out).
DEFAULTS = [
    (lambda: IntPoly(), lambda: IntPoly(())),
    (lambda: LaurentPoly(), lambda: LaurentPoly((), 0)),
    (lambda: LaurentPoly((1,)), lambda: LaurentPoly((1,), 0)),
    (lambda: ExactSeq((1, 2)), lambda: ExactSeq((1, 2), 1)),
    (lambda: BraidWord(3), lambda: BraidWord(3, (), 0)),
    (lambda: BraidWord(3, (1,)), lambda: BraidWord(3, (1,), 0)),
    (lambda: IrreducibilityCertificate("irreducible"),
     lambda: IrreducibilityCertificate("irreducible", None, None)),
]


@pytest.mark.parametrize("cls, kwargs, other_kwargs, text", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_semantics(cls, kwargs, other_kwargs, text):
    value = cls(*kwargs.values())
    assert value == cls(**kwargs) and not value != cls(**kwargs)
    assert hash(value) == hash(cls(**kwargs))
    assert value != cls(**other_kwargs) and not value == cls(**other_kwargs)
    assert repr(value) == text
    # An instance of another class with the same fields is never equal,
    # and neither is the tuple of the field values.
    twin = type(cls.__name__, (cls,), {})(**kwargs)
    assert repr(twin) == text
    assert value != twin and twin != value
    assert value.__eq__(twin) is NotImplemented
    assert value != tuple(vars(value).values())
    for name in vars(value):
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == text
    with pytest.raises(TypeError):
        cls(*kwargs.values(), None)
    with pytest.raises(TypeError):
        cls(**kwargs, extra=None)


def test_value_defaults():
    assert len(CASES) == 23
    for short, full in DEFAULTS:
        assert short() == full() and repr(short()) == repr(full())
    for missing in (lambda: IrreducibilityCertificate(), lambda: Periodicity(1),
                    lambda: IrreducibilityCertificate("irreducible", status="reducible")):
        with pytest.raises(TypeError):
            missing()
