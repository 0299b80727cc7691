"""Property tests for the loaders: any file either loads or is bad input.

Each test mutates the shipped files, or writes arbitrary CSV text, and
asserts that the loader returns or raises a GridBargainError, which the
command line turns into exit 2. A bare TypeError, KeyError or
ValueError would be a traceback instead.
"""

import os
import tempfile

import numpy as np
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gridbargain import (DesdParams, GridBargainError, GridLimits, Horizon, MicrogridModel,
                         PiecewiseSocBdc, PriceProfile, UserSpec, Wt, data_path)
from gridbargain.io import (load_demands, load_experiment, load_model, load_prices,
                            read_matrix, read_table)
from gridbargain.model import ConstantBdc, model_violations, validate_model

PROPERTY = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

junk = st.one_of(
    st.none(), st.booleans(), st.integers(-10**20, 10**20),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
    st.lists(st.one_of(st.integers(-2, 30), st.floats(-1.0, 2.0)), max_size=4),
    st.dictionaries(st.sampled_from(["id", "file", "kind", "steps", "dt", "x"]),
                    st.one_of(st.integers(-2, 30), st.text(max_size=3)), max_size=2),
)


def _paths(node, prefix=()):
    """Every key path into a YAML document, the root excluded."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    out = []
    for key, child in items:
        out.append(prefix + (key,))
        out += _paths(child, prefix + (key,))
    return out


_DROP = object()


def _mutated(doc, edits):
    """``doc`` with each (path, value) edit applied; a value of ``_DROP``
    deletes the entry."""
    doc = yaml.safe_load(yaml.safe_dump(doc))
    for path, value in edits:
        node = doc
        try:
            for key in path[:-1]:
                node = node[key]
            if value is _DROP:
                del node[path[-1]]
            else:
                node[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            continue  # an earlier edit removed or replaced this path
    return doc


def _edits(doc):
    return st.lists(st.tuples(st.sampled_from(_paths(doc)),
                              st.one_of(junk, st.just(_DROP))),
                    min_size=1, max_size=3)


def _shipped(name):
    """A shipped YAML file with its relative paths made absolute."""
    with open(data_path(name)) as fh:
        doc = yaml.safe_load(fh)
    for key in ("model", "prices", "demands"):
        if key in doc:
            doc[key] = data_path(doc[key])
    for node in (doc.get("scenarios") or {}).values():
        node["file"] = data_path(node["file"])
    return doc


MODEL = _shipped("model.yaml")
EXPERIMENT = _shipped("experiment.yaml")


def _loads_or_bad_input(load, doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(doc, fh)
        try:
            load(path)
        except GridBargainError:
            pass


@PROPERTY
@given(_edits(MODEL))
def test_load_model_loads_or_rejects(edits):
    _loads_or_bad_input(load_model, _mutated(MODEL, edits))


@PROPERTY
@given(_edits(EXPERIMENT))
def test_load_experiment_loads_or_rejects(edits):
    _loads_or_bad_input(load_experiment, _mutated(EXPERIMENT, edits))


csv_text = st.text(alphabet="0123456789.,-+e\n #abinfu_é", max_size=60)


@PROPERTY
@given(csv_text, st.sampled_from(["", "p_buy,p_sell\n", "u1,u2\n"]), st.integers(0, 3))
def test_csv_readers_load_or_reject(body, header, steps):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + body)
        for read in (read_matrix, read_table, lambda p: load_prices(p, steps),
                     lambda p: load_demands(p, ["u1", "u2"], steps)):
            try:
                read(path)
            except GridBargainError:
                pass


number = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.integers(-5, 5))


@st.composite
def models(draw):
    """Models with arbitrary numbers in every field and mismatched shapes."""
    T = draw(st.integers(1, 4))
    users = []
    for k in range(draw(st.integers(0, 3))):
        desd = None
        if draw(st.booleans()):
            bdc = draw(st.one_of(
                st.builds(ConstantBdc, number),
                st.builds(PiecewiseSocBdc, st.lists(st.tuples(number, number), max_size=3))))
            desd = DesdParams(*(draw(number) for _ in range(5)), bdc=bdc)
        rg = Wt(draw(number)) if draw(st.booleans()) else None
        users.append(UserSpec(draw(st.sampled_from(["u1", "u2", ""])), desd=desd, rg=rg))
    rows = draw(st.integers(0, 3))
    cols = draw(st.sampled_from([T, T + 1]))
    demands = np.array([[draw(number) for _ in range(cols)] for _ in range(rows)],
                       dtype=float).reshape(rows, cols)
    price = [draw(number) for _ in range(draw(st.sampled_from([T, T - 1])))]
    return MicrogridModel(
        horizon=Horizon(steps=T, dt=draw(number)), users=tuple(users), demands=demands,
        prices=PriceProfile(buy=price, sell=price[::-1]),
        grid=draw(st.one_of(st.none(), st.builds(GridLimits, number))))


@PROPERTY
@given(models())
def test_model_violations_list_what_validation_rejects(model):
    problems = model_violations(model)
    assert all(isinstance(p, str) for p in problems)
    try:
        valid = validate_model(model)
    except GridBargainError:
        return
    assert not problems
    numbers = [valid.horizon.dt, valid.grid.p_g_max]
    for u in valid.users:
        numbers += [u.rg.size_kw] if u.rg is not None else []
        if u.desd is not None:
            d = u.desd
            numbers += [d.e0, d.e_min, d.e_max, d.p_b_max, d.kappa]
            numbers += ([d.bdc.c_d] if isinstance(d.bdc, ConstantBdc)
                        else [x for pair in d.bdc.breakpoints for x in pair])
    assert np.all(np.isfinite(numbers))  # a solver never meets inf or nan
