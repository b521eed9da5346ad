"""The package's records behave as the frozen dataclasses they replace.

Each of the 14 record classes is checked against a twin built here by
``dataclasses.make_dataclass(..., frozen=True)`` with the same fields and
defaults (``AdditivityReport._scaled`` out of ``==``, ``hash`` and
``repr``, as it was declared): construction by position, by keyword and
with defaults; ``==``, ``hash`` and ``repr``; refused assignment and
deletion; pickling and copying; and the ``__post_init__`` refusals of
``PsiParams`` and ``FiniteGroupFn``.
"""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from groupcut import (
    AdditivityReport,
    DeltaFace,
    ExtremalityVerdict,
    FaceCountCheck,
    FiniteExtremalityVerdict,
    FiniteGroupFn,
    MinimalityVerdict,
    MinimalityWitness,
    PerturbationBasis,
    PerturbationCertificate,
    PsiParams,
    SequentialMerge,
    gmic,
)
from groupcut.compendium import RegistryEntry
from groupcut.finite import FiniteCertificate

F = Fraction


def optional(name, **options):
    """A field of default None, as make_dataclass takes it."""
    return name, object, dataclasses.field(default=None, **options)


PI = gmic(F(4, 5))
FACE_ARGS = (1, (F(0), F(1, 2)), (F(0), F(0)), (F(0), F(1, 2)), ((F(0), F(0)), (F(1, 2), F(0))))
G = FiniteGroupFn(3, 1, (F(0), F(1), F(1, 2)))
WITNESS_ARGS = ("subadditivity", (F(1, 5), F(2, 5)), F(-1, 10), ((F(0), F(0)),))

# Each class: its fields as the dataclass declared them, and sample values
# for every field.
RECORDS = [
    (PsiParams, ["f", "eps"], (F(4, 5), (F(1, 20),))),
    (SequentialMerge, ["outer", "inner"], (PI, gmic(F(1, 2)))),
    (RegistryEntry, ["name", "description", "parameters", "builder"], ("gmic", "cut", ("f",), gmic)),
    (DeltaFace, ["dim", "interval_x", "interval_y", "interval_z", "vertices"], FACE_ARGS),
    (
        AdditivityReport,
        ["additive_faces", "covered_intervals", "f",
         optional("_scaled", repr=False, compare=False)],
        ((DeltaFace(*FACE_ARGS),), ((F(0), F(1, 2)),), F(4, 5), (2, ((0, 1, 0, 0, 0, 1),))),
    ),
    (FaceCountCheck, ["q", "two_faces", "expected", "ok"], (2, 8, 8, True)),
    (PerturbationBasis, ["grid_n", "f_index", "vectors"], (3, 1, ((F(0), F(1), F(0)),))),
    (PerturbationCertificate, ["perturbation", "epsilon", "pi_plus", "pi_minus"], (PI, F(1), PI, PI)),
    (
        ExtremalityVerdict,
        ["extreme", "oversampling", "grid_n", "basis_dimension", "covered_intervals",
         optional("certificate")],
        (False, 3, 15, 1, ((F(0), F(1)),), PerturbationCertificate(PI, F(1), PI, PI)),
    ),
    (FiniteGroupFn, ["q", "f_index", "values"], (3, 1, (F(0), F(1), F(1, 2)))),
    (FiniteCertificate, ["perturbation", "epsilon", "g_plus", "g_minus"], (G, F(1, 2), G, G)),
    (
        FiniteExtremalityVerdict,
        ["extreme", "basis_dimension", optional("certificate")],
        (False, 1, FiniteCertificate(G, F(1, 2), G, G)),
    ),
    (
        MinimalityWitness,
        ["kind", "location", "value", optional("face_vertices")],
        WITNESS_ARGS,
    ),
    (MinimalityVerdict, ["minimal", optional("witness")], (False, MinimalityWitness(*WITNESS_ARGS))),
]
TWINS = {
    cls: dataclasses.make_dataclass(cls.__name__, fields, frozen=True) for cls, fields, _ in RECORDS
}
ARGS = {cls: args for cls, _, args in RECORDS}
CASES = [pytest.param(cls, args, id=cls.__name__) for cls, args in ARGS.items()]


def names(cls):
    return [f.name for f in dataclasses.fields(TWINS[cls])]


def required(cls):
    return sum(f.default is dataclasses.MISSING for f in dataclasses.fields(TWINS[cls]))


def assert_like(record, twin):
    assert type(record).__name__ == type(twin).__name__
    fields = names(type(record))
    assert [getattr(record, n) for n in fields] == [getattr(twin, n) for n in fields]
    assert repr(record) == repr(twin)
    assert hash(record) == hash(twin)


def test_every_record_has_a_twin():
    assert len(RECORDS) == 14


@pytest.mark.parametrize("cls, args", CASES)
def test_fields_are_the_declared_ones(cls, args):
    assert list(cls._fields) == names(cls) == list(cls.__annotations__)


@pytest.mark.parametrize("cls, args", CASES)
def test_construction(cls, args):
    twin = TWINS[cls]
    assert_like(cls(*args), twin(*args))
    kwargs = dict(zip(names(cls), args))
    assert_like(cls(**kwargs), twin(**kwargs))
    head = args[: required(cls)]
    assert_like(cls(*head), twin(*head))
    assert cls(*head) == cls(**dict(zip(names(cls), head)))
    for bad in (
        lambda c: c(*args, None),
        lambda c: c(*args[:-1], **{names(cls)[0]: args[0]}),
        lambda c: c(*args, no_such_field=None),
        lambda c: c(),
    ):
        with pytest.raises(TypeError):
            bad(twin)
        with pytest.raises(TypeError):
            bad(cls)


@pytest.mark.parametrize("cls, args", CASES)
def test_equality_and_hash(cls, args):
    record, twin = cls(*args), TWINS[cls](*args)
    assert record == cls(*args) and not record != cls(*args)
    assert hash(record) == hash(cls(*args)) == hash(twin)
    assert record != twin and twin != record
    assert record.__eq__(twin) is NotImplemented and twin.__eq__(record) is NotImplemented
    assert all(record != other(*other_args) for other, other_args in ARGS.items() if other is not cls)


def test_records_of_two_classes_with_equal_fields_differ():
    args = ARGS[FiniteCertificate]
    pairs = (PerturbationCertificate, FiniteCertificate), (TWINS[PerturbationCertificate], TWINS[FiniteCertificate])
    for a, b in pairs:
        assert a(*args) != b(*args) and hash(a(*args)) == hash(b(*args))


def test_private_field_stays_out_of_eq_hash_and_repr():
    args = ARGS[AdditivityReport]
    report, other = AdditivityReport(*args), AdditivityReport(*args[:3], _scaled=None)
    twin, twin_other = TWINS[AdditivityReport](*args), TWINS[AdditivityReport](*args[:3])
    assert report == other and twin == twin_other
    assert hash(report) == hash(other) == hash(twin_other)
    assert repr(report) == repr(other) == repr(twin_other)
    assert "_scaled" not in repr(report)
    assert report._scaled == args[3] and other._scaled is None


@pytest.mark.parametrize("cls, args", CASES)
def test_assignment_and_deletion_raise(cls, args):
    for record in (cls(*args), TWINS[cls](*args)):
        for name in (names(cls)[0], "no_such_field"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert getattr(record, names(cls)[0]) == args[0]


@pytest.mark.parametrize("cls, args", CASES)
def test_pickle_and_copy(cls, args):
    record, twin = cls(*args), TWINS[cls](*args)
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(record, protocol))
        assert type(clone) is cls and clone == record
        assert_like(clone, twin)
    for copier in copy.copy, copy.deepcopy:
        assert type(copier(record)) is cls and copier(record) == record
        assert_like(copier(record), copier(twin))


def test_cached_properties_survive_the_frozen_records():
    g = FiniteGroupFn(*ARGS[FiniteGroupFn])
    assert g._integers == ((0, 2, 1), 2) and "_integers" in vars(g)
    report = AdditivityReport(*ARGS[AdditivityReport])
    assert report.maximal_faces == report.additive_faces and "maximal_faces" in vars(report)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PsiParams(F(3, 2), ()), "strictly between"),
        (lambda: PsiParams(F(4, 5), (F(1, 20), F(1, 10))), "strictly decreasing"),
        (lambda: PsiParams(f=F(4, 5), eps=(F(-1, 20),)), "positive"),
        (lambda: FiniteGroupFn(3, 1, (F(0), F(1))), "exactly q values"),
        (lambda: FiniteGroupFn(1, 0, (F(0),)), "at least 2"),
        (lambda: FiniteGroupFn(q=3, f_index=3, values=(F(0),) * 3), "strictly between 0 and q"),
        (lambda: FiniteGroupFn(3.0, 1, (F(0),) * 3), "integers"),
    ],
)
def test_post_init_refusals_still_raise(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_post_init_normalizes_as_before():
    assert PsiParams("4/5", [F(1, 20)]) == PsiParams(F(4, 5), (F(1, 20),))
    assert FiniteGroupFn(2, 1, [0, 1]).values == (F(0), F(1))
    assert type(FiniteGroupFn(2, 1, [0, 1]).values[1]) is Fraction
