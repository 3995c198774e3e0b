"""The public behaviour of the eight immutable records: field names and
order, equality and hashing, the exact repr text and immutability; plus the
node access of `ClosedFormTable`, copying and pickling, and the key order of
`octell params`."""
import copy
import pickle

import pytest

from octell import (
    POLE,
    ClosedFormTable,
    CurveParams,
    FigureConfig,
    Lattice,
    PropertyResult,
    RadicalCatalog,
    VerificationReport,
    compute_lattice,
    derive_params,
    grid_table,
    verify_grid,
)
from octell.cli import run
from octell.verify import NodeCheck

RECORDS = [
    (CurveParams, "beta alpha d delta e1 e2 e3 g2 g3 discriminant_sqrt"),
    (Lattice, "omega1 omega2_im beta"),
    (
        RadicalCatalog,
        "gamma_minus_r gamma_plus_r gamma beta_seq delta_seq gamma02 gamma13 "
        "gamma01 gamma23 beta_pm delta_pm gamma0 gamma_lo gamma_hi gamma41 "
        "gamma42 gamma43 gamma44 b_const",
    ),
    (ClosedFormTable, "beta values symbols"),
    (FigureConfig, "beta lines_per_axis samples_per_line viewport clip_radius"),
    (PropertyResult, "name passed detail"),
    (NodeCheck, "m n symbol closed numeric abs_err rel_err"),
    (
        VerificationReport,
        "beta tol orientation_flipped per_node property_results verdict",
    ),
]
IDS = [cls.__name__ for cls, _ in RECORDS]


def _values(fields: str, offset: float = 0.0) -> list:
    """One distinct value per field, given positionally."""
    return [float(i) + offset + 0.5 for i in range(len(fields.split()))]


@pytest.mark.parametrize("cls,fields", RECORDS, ids=IDS)
def test_field_names_and_order(cls, fields):
    vals = _values(fields)
    rec = cls(*vals)
    assert [getattr(rec, f) for f in fields.split()] == vals
    assert cls(**dict(zip(fields.split(), vals))) == rec


@pytest.mark.parametrize("cls,fields", RECORDS, ids=IDS)
def test_equality_and_hash(cls, fields):
    a, b = cls(*_values(fields)), cls(*_values(fields))
    assert a == b and not a != b
    assert hash(a) == hash(b)
    other = _values(fields)
    other[-1] += 1.0
    assert a != cls(*other)


@pytest.mark.parametrize("cls,fields", RECORDS, ids=IDS)
def test_repr_text(cls, fields):
    vals = _values(fields)
    body = ", ".join(f"{f}={v!r}" for f, v in zip(fields.split(), vals))
    assert repr(cls(*vals)) == f"{cls.__name__}({body})"


@pytest.mark.parametrize("cls,fields", RECORDS, ids=IDS)
def test_assignment_raises(cls, fields):
    rec = cls(*_values(fields))
    for f in fields.split():
        with pytest.raises(AttributeError):
            setattr(rec, f, 0.0)
        with pytest.raises(AttributeError):
            delattr(rec, f)
    with pytest.raises(AttributeError):
        rec.not_a_field = 0.0
    assert [getattr(rec, f) for f in fields.split()] == _values(fields)


def test_figure_config_defaults():
    assert repr(FigureConfig()) == (
        "FigureConfig(beta=2.618033988749895, lines_per_axis=16, "
        "samples_per_line=512, viewport=None, clip_radius=None)"
    )
    assert FigureConfig(beta=3.0) == FigureConfig(3.0, 16, 512, None, None)


def test_lattice_theta_is_cached_outside_the_fields():
    lat = Lattice(1.4, 1.9, 3.0)
    theta = lat.theta
    assert lat.theta is theta
    assert lat == Lattice(1.4, 1.9, 3.0)
    assert hash(lat) == hash(Lattice(1.4, 1.9, 3.0))
    assert repr(lat) == "Lattice(omega1=1.4, omega2_im=1.9, beta=3.0)"


def test_closed_form_table_access():
    table = grid_table(derive_params(3.0))
    entries = list(table.nodes())
    assert len(entries) == 81
    assert [(m, n) for m, n, _, _ in entries] == [
        (m, n) for n in range(9) for m in range(9)
    ]
    for m, n, sym, val in entries:
        assert sym == table.symbol(m, n) == table.symbols[n][m]
        assert val is table.value(m, n) is table.values[n][m]
    assert table.symbol(2, 1) == "-beta*conj(gamma_hi)"
    assert table.value(2, 4) == -1.0
    # an index outside 0..8 raises rather than wrap round: value(-1, 0) would
    # be node (8, 0), POLE, where R(-omega1/4) is node (7, 0)'s value
    for m, n in ((-1, 0), (0, -1), (9, 0), (0, 9)):
        for access in (table.value, table.symbol):
            with pytest.raises(IndexError):
                access(m, n)
    assert table == grid_table(derive_params(3.0))
    assert table != grid_table(derive_params(2.0))


def test_records_survive_pickle_and_copy():
    params = derive_params(3.0)
    lat = compute_lattice(params)
    lat.theta  # built, so its cached value is pickled and copied too
    for rec in (grid_table(params), verify_grid(3.0), lat):
        for clone in (
            pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)
        ):
            assert clone == rec
    for clone in (pickle.loads(pickle.dumps(POLE)), copy.copy(POLE), copy.deepcopy(POLE)):
        assert clone is POLE


def test_params_json_key_order(capsys):
    assert run(["params", "--beta", "3"]) == 0
    out = capsys.readouterr().out
    keys = [line.split('"')[1] for line in out.splitlines()[1:-1]]
    assert keys == [
        "schema", "beta", "alpha", "d", "delta", "e1", "e2", "e3", "g2", "g3",
        "discriminant_sqrt", "omega1", "omega2_im", "backend",
    ]
    assert out.startswith('{\n  "schema": 1,\n  "beta": 3.0,\n  "alpha": ')
    assert out.endswith(',\n  "backend": "pure"\n}\n')
