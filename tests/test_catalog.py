import dataclasses
import json
import math
import re

import numpy as np
import pytest

import whergo.catalog as catalog
from conftest import compiled_labels
from tau_route import compose_monodromy, poly_degree
from whergo.catalog import (
    load_model_json,
    make_model,
    model_from_dict,
    model_identity,
    model_kerr,
    model_mp5d,
    model_mvc5d,
    model_to_dict,
)
import whergo.engine as engine
from whergo.poly import as_poly, newton_polish, poly_eval, poly_eval_stack
from whergo.errors import (
    ExtremalOrOverRotating,
    InvariantViolation,
    ParameterViolation,
    SchemaError,
)
from whergo.spectral import SpectralPoint, spectral_map


def test_kerr_entry_values(kerr):
    # (1,2) entry: 2 a m / (w^2 - c^2) = 4/(w^2 - 3) at m=2, a=1
    assert kerr.eval(2.0)[0, 1] == pytest.approx(4.0)
    assert abs(np.linalg.det(kerr.eval(5j)) - 1.0) <= 1e-12


@pytest.mark.parametrize("shape", [(), (7,), (3, 4)])
def test_stacked_eval_is_the_entry_calls_bitwise(shape, kerr, mp5d, mvc5d):
    # one Horner pass over the zero-padded coefficient stack gives each
    # entry's own value (poly_eval_stack of that entry alone), bit for bit
    # and with the same shape; an array of omega gives poly_eval's values too
    rng = np.random.default_rng(8)
    w = rng.uniform(-4.0, 4.0, shape) + 1j * rng.uniform(-3.0, 3.0, shape)
    w = complex(w) if shape == () else w
    for model in (kerr, mp5d, mvc5d):
        got = model.eval(w)
        assert got.shape == (model.n, model.n) + shape
        want = np.array([[(poly_eval_stack(as_poly(e.num), w)
                           / poly_eval_stack(as_poly(e.den), w))[()] for e in row]
                         for row in model.entries])
        assert want.shape == got.shape and np.array_equal(got, want)
        if shape:
            direct = np.array([[poly_eval(e.num, w) / poly_eval(e.den, w) for e in row]
                               for row in model.entries])
            assert np.array_equal(got, direct)


def test_kerr_a_zero_reduces_to_ratio():
    m = 2.0
    model = model_kerr(m, 0.0)
    for w in (3.0, 5.0 + 1.0j):
        val = model.eval(w)
        assert val[0, 0] == pytest.approx((w - m) / (w + m))
        assert val[1, 1] == pytest.approx((w + m) / (w - m))
        assert val[0, 1] == 0.0


def test_kerr_parameter_domain():
    with pytest.raises(ExtremalOrOverRotating):
        model_kerr(1.0, 1.0)
    with pytest.raises(ExtremalOrOverRotating):
        model_kerr(1.0, 2.0)


@pytest.mark.parametrize("builder", [model_kerr, model_mp5d, model_mvc5d])
@pytest.mark.parametrize("m, a, name, shown", [
    (math.inf, 1.0, "m", "inf"), (2.0, math.nan, "a", "nan"),
    (-math.inf, 1.0, "m", "-inf"), (2.0, math.inf, "a", "inf")])
def test_non_finite_parameters_are_refused_before_root_finding(builder, m, a, name, shown,
                                                               monkeypatch):
    def no_roots(p):
        raise AssertionError("root finding on a non-finite model")
    monkeypatch.setattr(catalog, "_polished_roots", no_roots)
    with pytest.raises(ParameterViolation, match=f"^model parameter {name} must be finite, "
                                                 f"got {name}={shown}$"):
        builder(m, a)


def test_kerr_c_is_a_plain_float():
    model = model_kerr(2.0, 1.0)
    assert type(model.params["c"]) is float and model.params["c"] == np.sqrt(3.0)


def test_mp5d_values(mp5d):
    assert abs(np.linalg.det(mp5d.eval(2.0 + 3.0j)) - 1.0) <= 1e-10
    eta = np.diag([1.0, -1.0, 1.0])
    for w in (1.7 + 0.4j, -2.2 + 1.0j):
        val = mp5d.eval(w)
        assert np.max(np.abs(eta @ val.T @ eta - val)) <= 1e-12 * max(1, np.max(np.abs(val)))


def test_mp5d_a_zero_is_diagonal():
    m = 2.0
    model = model_mp5d(m, 0.0)
    al = m / 2.0
    for w in (2.5, 1.1 + 0.3j):
        val = model.eval(w)
        off = val - np.diag(np.diag(val))
        assert np.max(np.abs(off)) <= 1e-12
        assert val[0, 0] == pytest.approx(1.0 / (2 * (w - al)))
        assert val[1, 1] == pytest.approx(2 * (w + al))
        assert val[2, 2] == pytest.approx((w - al) / (w + al))


def test_mp5d_parameter_domain():
    with pytest.raises(ParameterViolation):
        model_mp5d(1.0, 2.0)


def test_mvc5d_values(mvc5d):
    al = 0.75
    assert mvc5d.eval(2.0)[0, 0] == pytest.approx(-2.0 / (2.0 + al))
    assert abs(np.linalg.det(mvc5d.eval(1.0 + 1.0j)) - 1.0) <= 1e-10


def test_mvc5d_a_zero_reduces_to_schwarzschild_block():
    m = 2.0
    model = model_mvc5d(m, 0.0)
    al = m / 2.0
    for w in (2.0, 0.4 + 1.1j):
        val = model.eval(w)
        assert val[0, 0] == pytest.approx(-2.0 / (w + al))
        assert val[0, 1] == pytest.approx(w / (w + al))
        assert val[1, 0] == pytest.approx(-w / (w + al))
        assert val[1, 1] == pytest.approx(al * al / (2 * (w + al)))
        assert val[2, 2] == pytest.approx((w + al) / (w - al))
        assert val[0, 2] == 0.0 and val[1, 2] == 0.0


def test_catalog_invariants_50_samples(rng, kerr, mp5d, mvc5d):
    for model in (kerr, mp5d, mvc5d):
        eta = np.diag(np.array(model.eta))
        for _ in range(50):
            w = complex(rng.uniform(-4, 4), rng.uniform(0.3, 3.0))
            val = model.eval(w)
            scale = max(1.0, np.max(np.abs(val)))
            assert abs(np.linalg.det(val) - 1.0) <= 1e-10 * scale ** model.n
            assert np.max(np.abs(eta @ val.T @ eta - val)) <= 1e-10 * scale


def test_kerr_degree_table(kerr):
    mono = compose_monodromy(kerr, SpectralPoint(1.0, 0.5))
    dt = mono.degree_table
    assert (dt.k11, dt.k12, dt.k22, dt.n) == (2, 0, 2, 2)
    assert (dt.N1, dt.N2) == (2, 2)
    assert dt.N1 + dt.N2 == 2 * dt.n


def test_always_canonical_degrees_violate_det_one():
    # a symmetric 2x2 model with N1 + N2 < 2n cannot have det M = 1: det p
    # = q^2 has degree 2n, but p11 p22 - p12^2 has degree at most N1 + N2
    with pytest.raises(InvariantViolation, match="det M"):
        make_model([[([1.0], [1.0, 1.0]), ([0.0], [1.0])],
                    [([0.0], [1.0]), ([1.0], [1.0, 1.0])]])


def test_degree_dichotomy(kerr):
    # N1 + N2 = 2n holds precisely when no chain inequality holds
    mono = compose_monodromy(kerr, SpectralPoint(1.0, 0.5))
    dt = mono.degree_table
    chain = (dt.k11 > dt.k12 > dt.k22) or (dt.k22 > dt.k12 > dt.k11)
    assert not chain
    assert dt.N1 + dt.N2 == 2 * dt.n


def test_composed_matches_direct(rng, kerr, mvc5d):
    for model in (kerr, mvc5d):
        pt = SpectralPoint(1.1, 0.4)
        mono = compose_monodromy(model, pt)
        for _ in range(7):
            tau = complex(rng.uniform(0.3, 1.6), rng.uniform(-1.0, 1.0))
            direct = model.eval(spectral_map(pt, tau))
            composed = mono.eval(tau)
            scale = max(1.0, np.max(np.abs(direct)))
            assert np.max(np.abs(direct - composed)) <= 1e-10 * scale
            assert abs(np.linalg.det(composed) - 1.0) <= 1e-8 * scale ** model.n


def test_composed_involution_consistency(kerr):
    # evaluations at tau and -1/tau see the same omega
    pt = SpectralPoint(1.3, -0.2)
    mono = compose_monodromy(kerr, pt)
    for tau in (0.5 + 0.4j, 1.7, -0.8 + 0.1j):
        a = mono.eval(tau)
        b = mono.eval(-1.0 / tau)
        assert np.max(np.abs(a - b)) <= 1e-9 * max(1.0, np.max(np.abs(a)))


def test_kerr_composed_denominator_is_q4(kerr):
    pt = SpectralPoint(1.0, 0.0)
    mono = compose_monodromy(kerr, pt)
    assert np.allclose(mono.q2n, [0.25, 0.0, -3.5, 0.0, 0.25])


def test_identity_monodromy():
    model = model_identity(2)
    mono = compose_monodromy(model, SpectralPoint(2.0, 1.0))
    assert np.allclose(mono.eval(0.7 + 0.2j), np.eye(2))
    # no pole: the plan's layout names no root
    plan, (_, lk, _) = compiled_labels(model, model.default_branches)
    lay = plan.layout
    assert lay.pi.shape == lay.xden.shape == lay.l0.shape == (2, 0)
    assert lay.groot.size == 0 and [labels.count(0) for labels in lk] == [0, 0]


def test_mp5d_plan_labels_have_origin_pole(mp5d):
    # labels: 0 is tau = 0, 1 + 2i and 2 + 2i the pair of omega_poles[i]
    plan, (_, lk, _) = compiled_labels(mp5d, mp5d.default_branches)
    lay = plan.layout
    assert [labels.count(0) for labels in lk] == [1, 1, 1]     # one tau = 0 pole in every L_k
    assert lay.pi[1][lay.pi[1] >= 0].tolist() == [0]
    # the omega = alpha - m denominator factor of the (3,3) entry cancels
    # exactly under 4 alpha = 2m - a^2, so only the +-alpha pairs are poles
    assert [w.real for w in mp5d.omega_poles[:2]] == pytest.approx([-0.75, 0.75])
    assert set(lay.l0[lay.l0 >= 0].tolist()) == {1, 2, 3, 4}     # the non-zero labels of L_k


def test_mp5d_alpha_minus_m_pole_is_removable(mp5d):
    al = mp5d.params["alpha"]
    e33 = mp5d.entry(2, 2)
    assert e33.den.size == 3          # reduced to (omega^2 - alpha^2)
    roots = sorted(np.roots(e33.den[::-1]).real)
    assert roots == pytest.approx([-al, al])
    # alpha - m is no pole of M, and the model declares only the two it has
    assert mp5d.omega_poles == (-al, al)
    assert mp5d.default_branches == ("minus", "minus")


def test_mvc5d_row_inside_poles(mvc5d):
    lay = engine._plan_for(mvc5d, mvc5d.default_branches).layout
    assert (lay.pi >= 0).sum(axis=1).tolist() == [1, 2, 1]


MODELS = [(builder, m, a) for builder in (model_kerr, model_mp5d, model_mvc5d)
          for m, a in ((2.0, 1.0), (2.0, 0.3), (5.0, 1.7))]


def _bits(x):
    return np.asarray(x).tobytes()


@pytest.mark.parametrize("builder, m, a", MODELS)
def test_den_roots_are_the_reference_roots_bitwise(builder, m, a):
    # make_model hands each entry the roots its cancellation found: they
    # are the polished np.roots of the reduced denominator, bit for bit
    for row in builder(m, a).entries:
        for e in row:
            want = () if poly_degree(e.den) < 1 else tuple(
                complex(newton_polish(e.den, r, steps=2)) for r in np.roots(e.den[::-1]))
            assert _bits(e.den_roots) == _bits(want)


def test_make_model_finds_each_denominators_roots_once(monkeypatch):
    # the entries share their denominators: Kerr has 4 entries over 1, mp5d
    # 4 over 1, mvc5d 7 over 3; each is root-found and polished once a build
    calls = []
    real = catalog._polished_roots

    def counted(p):
        calls.append(_bits(p))
        return real(p)
    monkeypatch.setattr(catalog, "_polished_roots", counted)
    for builder, distinct in ((model_kerr, 1), (model_mp5d, 1), (model_mvc5d, 3)):
        calls.clear()
        builder(2.0, 1.0)
        assert len(calls) == len(set(calls)) == distinct


def _plan_bits(model):
    plan = engine._plan_for(model, model.default_branches)
    layouts = ("layout", "d_layout")
    fields = [(f.name, getattr(plan, f.name)) for f in dataclasses.fields(plan)
              if f.name not in layouts]
    fields += [(f"{lay}.{f.name}", getattr(getattr(plan, lay), f.name))
               for lay in layouts for f in dataclasses.fields(plan.layout)]
    return {name: (_bits(v) if isinstance(v, np.ndarray) else repr(v)) for name, v in fields}


@pytest.mark.parametrize("builder, m, a", MODELS)
def test_json_roundtrip_is_bitwise(builder, m, a):
    # the document carries the entries, not the poles or branches: its
    # model has m's entries bit for bit, and with m's poles and branches
    # m's plan; a second round trip changes nothing
    model = builder(m, a)
    loaded = model_from_dict(model_to_dict(model))
    for row, loaded_row in zip(model.entries, loaded.entries):
        for e, f in zip(row, loaded_row):
            assert all(_bits(getattr(e, x)) == _bits(getattr(f, x))
                       for x in ("num", "den", "den_roots"))
    rebuilt = make_model(loaded.entries, loaded.eta, loaded.params, model.model_id,
                         model.omega_poles, model.default_branches)
    assert _plan_bits(rebuilt) == _plan_bits(model)
    again = model_from_dict(model_to_dict(loaded))
    assert _bits(again.omega_poles) == _bits(loaded.omega_poles)
    assert _plan_bits(again) == _plan_bits(loaded)


def test_json_roundtrip(kerr, tmp_path):
    doc = model_to_dict(kerr)
    path = tmp_path / "kerr.json"
    path.write_text(json.dumps(doc))
    loaded = load_model_json(path)
    for i in range(2):
        for j in range(2):
            assert np.array_equal(loaded.entry(i, j).num, kerr.entry(i, j).num)
            assert np.array_equal(loaded.entry(i, j).den, kerr.entry(i, j).den)


# the first of the seven seeded validation points
FIRST_OMEGA = "(-0.6760059094861965+1.1911066192339923j)"


def test_json_det_violation():
    doc = {"n": 2, "eta": [1, 1],
           "entries": [[{"num": [[1, 0]], "den": [[1, 0]]},
                        {"num": [[0, 0]], "den": [[1, 0]]}],
                       [{"num": [[0, 0]], "den": [[1, 0]]},
                        {"num": [[2, 0]], "den": [[1, 0]]}]]}
    with pytest.raises(InvariantViolation) as exc:
        model_from_dict(doc)
    assert str(exc.value) == f"det M({FIRST_OMEGA}) = (2+0j), expected 1 (model json)"


def test_json_asymmetric_violation():
    # asymmetric with det != 1: at each point the det check comes first
    doc = {"n": 2, "eta": [1, 1],
           "entries": [[{"num": [[1, 0], [1, 0]], "den": [[1, 0]]},
                        {"num": [[1, 0]], "den": [[1, 0]]}],
                       [{"num": [[2, 0]], "den": [[1, 0]]},
                        {"num": [[0, 0], [0, 0], [1, 0]], "den": [[1, 0], [1, 0]]}]]}
    with pytest.raises(InvariantViolation) as exc:
        model_from_dict(doc)
    assert str(exc.value) == (f"det M({FIRST_OMEGA}) = (-2.961750988722771-1.6103902268606078j), "
                              f"expected 1 (model json)")


def test_json_eta_asymmetric_violation():
    # M = [[1, omega], [0, 1]] has det 1 but eta M^T eta != M for eta = (1, -1)
    doc = {"n": 2, "eta": [1, -1],
           "entries": [[{"num": [[1, 0]], "den": [[1, 0]]},
                        {"num": [[0, 0], [1, 0]], "den": [[1, 0]]}],
                       [{"num": [[0, 0]], "den": [[1, 0]]},
                        {"num": [[1, 0]], "den": [[1, 0]]}]]}
    with pytest.raises(InvariantViolation) as exc:
        model_from_dict(doc)
    assert str(exc.value) == f"eta-symmetry residual 1.37e+00 at omega={FIRST_OMEGA}"


@pytest.mark.parametrize("doc", [
    {"n": 2},
    {"n": 2, "eta": [1, 1], "entries": [], "extra_key": 1},
    {"n": 2, "eta": [1, 2], "entries": [[], []]},
    {"n": "two", "eta": [1, 1], "entries": [[], []]},
    {"n": 2, "eta": [1, 1], "entries": [[{"num": [[1, 0]], "den": [[1, 0]],
                                          "foo": 3}] * 2] * 2},
    # the identity model, whose only fault is a boolean in eta
    {"n": 2, "eta": [True, 1],
     "entries": [[{"num": [[1, 0]], "den": [[1, 0]]}, {"num": [[0, 0]], "den": [[1, 0]]}],
                 [{"num": [[0, 0]], "den": [[1, 0]]}, {"num": [[1, 0]], "den": [[1, 0]]}]]},
])
def test_json_schema_errors(doc):
    with pytest.raises(SchemaError):
        model_from_dict(doc)


@pytest.mark.parametrize("key, value", [("note", "x"), ("m", True), ("m", float("nan")),
                                        ("a", float("inf")), ("a", -float("inf"))])
def test_json_params_must_be_numbers(key, value):
    # model_to_dict writes every param as a float: a string would load and
    # then fail to save, a boolean come back as 1.0, and a NaN or Infinity
    # (which Python's json reads) be written back as a token that strict
    # JSON refuses; all are refused at load, naming the key.  Every
    # built-in model's document round-trips
    doc = model_to_dict(model_kerr(2.0, 1.0))
    doc["params"][key] = value
    with pytest.raises(SchemaError, match=f"^params\\[{key!r}\\] must be a finite number"):
        model_from_dict(doc)
    for builder in (model_kerr, model_mp5d, model_mvc5d):
        doc = model_to_dict(builder(2.0, 1.0))
        assert model_to_dict(model_from_dict(doc)) == doc


def test_load_model_json_bad_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError):
        load_model_json(path)


def test_make_model_cancels_shared_factors():
    m = 2.0
    model = model_kerr(m, 0.0)
    # (w - m)^2 + 0 over w^2 - m^2 reduces to (w - m)/(w + m)
    assert model.entry(0, 0).num.size == 2
    assert model.entry(0, 0).den.size == 2


def _kerr_entries():
    return [list(row) for row in model_kerr(2.0, 1.0).entries]


@pytest.mark.parametrize("poles, error, message", [
    ((math.sqrt(3.0), math.sqrt(3.0), -math.sqrt(3.0)), ParameterViolation,
     "omega poles 1.7320508075688772+0j and 1.7320508075688772+0j of model kerr coincide"),
    ((math.sqrt(3.0), -math.sqrt(3.0), 0.5), InvariantViolation, "but the poles of M are"),
    ((math.sqrt(3.0),), InvariantViolation, "but the poles of M are"),
], ids=["coincident", "no-pole-of-m", "entry-pole-undeclared"])
def test_make_model_refuses_poles_that_are_not_those_of_m(monkeypatch, poles, error, message):
    # declared omega poles must be exactly M's, each named once: refused at
    # build, before any plan is compiled
    def no_plan(*args, **kwargs):
        raise AssertionError("a plan was compiled")
    monkeypatch.setattr(engine, "_compile_plan", no_plan)
    with pytest.raises(error, match=re.escape(message)):
        make_model(_kerr_entries(), eta=(1.0, 1.0), model_id="kerr",
                   omega_poles=tuple(map(complex, poles)))


def test_degree_bookkeeping_max_rule(kerr, rng):
    # 2n = max(k11 + k22, 2 k12) for the composed normal form
    mono = compose_monodromy(kerr, SpectralPoint(1.7, -0.3))
    dt = mono.degree_table
    assert 2 * dt.n == max(dt.k11 + dt.k22, 2 * dt.k12)
    assert np.allclose(mono.q2n[-1].real, (1.7 / 2.0) ** 2)  # lc(q) (-rho/2)^n


@pytest.mark.parametrize("build", [
    lambda: model_identity(1),
    lambda: model_identity(4),
    lambda: make_model([[([1.0], [1.0]), ([0.0], [1.0])], [([1.0], [1.0])]]),
    lambda: make_model([[([1.0], [1.0]), ([0.0], [1.0]), ([0.0], [1.0])],
                        [([0.0], [1.0]), ([1.0], [1.0])]]),
], ids=["1x1", "4x4", "ragged-2", "ragged-3"])
def test_make_model_refuses_a_shape_other_than_2x2_or_3x3(build):
    # the engine factorises 2 x 2 and 3 x 3 models only: any other shape,
    # ragged rows included, is refused at build as a library error
    with pytest.raises(InvariantViolation, match="2 x 2 or 3 x 3"):
        build()


@pytest.mark.parametrize("eta", [
    (1.0, 1.0, 1.0), (1.0,), (1.0, 2.0), (1.0, float("nan")), (True, 1.0),
    np.array([True, True]), 1.0,
], ids=["3-of-2", "1-of-2", "two", "nan", "bool", "numpy-bool", "scalar"])
def test_make_model_refuses_an_eta_that_is_not_n_signs(eta):
    # eta is the signature diagonal: n numbers +-1, as the JSON schema asks,
    # refused at build as a library error before any matrix arithmetic
    with pytest.raises(InvariantViolation, match="needs eta as 2 numbers"):
        make_model([[([1.0], [1.0]), ([0.0], [1.0])], [([0.0], [1.0]), ([1.0], [1.0])]],
                   eta=eta)
    assert make_model([[([1.0], [1.0]), ([0.0], [1.0])], [([0.0], [1.0]), ([1.0], [1.0])]],
                      eta=np.array([1, -1])).eta == (1, -1)
