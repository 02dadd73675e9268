import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import whergo
import whergo.engine as engine
from whergo.spectral import SpectralPoint
from whergo.verify import run_suites

# the paper's tau-plane route, kept as a test oracle in tests/tau_route.py:
# the composition and its existence system, the 2x2 degree trichotomy, the
# scalar zero-pair algebra, and the factored rationals with their float
# root-multiset arithmetic (the library expands adj M(omega) once, by pole
# index)
TAU_ROUTE_NAMES = ("compose_monodromy", "MonodromyMatrixTau", "existence_system_2x2",
                   "compose_polynomial", "Classification", "ClassificationResult",
                   "classify_2x2", "DegreeTable", "common_denominator_form", "degree_table",
                   "zero_pair_for", "ZeroPair", "pair_quadratic", "PAIR_TOL",
                   "quadratic_roots", "DegeneratePair", "DegenerateCoefficient",
                   "FactoredRational", "_adjugate_fr", "_root_lcm", "_multiset_minus",
                   "_root_match", "poly_add", "_exact_trim", "poly_scale",
                   "poly_degree")
TEST_MODULES = ("tests", "tau_route", "conftest")
# top-level definitions that no library code uses and whergo does not
# export, each kept for the reason given
UNREFERENCED = {
    "closed_form_curve_weyl": "paper oracle of the tests and perfbench (ROADMAP item 18)",
    "curve_match_distance": "Hausdorff oracle of the tests and perfbench (ROADMAP item 18)",
    "mp_gtt_spherical": "paper oracle of the tests (ROADMAP item 18)",
    "spherical_from_prolate_5d": "chart map of the paper oracles (ROADMAP item 18)",
    "prolate_from_weyl_4d": "chart map of the paper oracles (ROADMAP item 18)",
    "prolate_from_weyl_5d": "chart map of the paper oracles (ROADMAP item 18)",
    "model_to_dict": "the JSON model format, read by tools/digest.py and the round-trip tests",
}


def _imported_modules(tree):
    """The absolute module names a parsed file imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_library_has_one_route_and_no_test_code():
    for name in whergo.__all__:
        assert getattr(whergo, name) is not None, name
    modules = [whergo] + [importlib.import_module(f"whergo.{info.name}")
                          for info in pkgutil.iter_modules(whergo.__path__)
                          if info.name != "__main__"]
    for module in modules:
        for name in TAU_ROUTE_NAMES:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    for name in TAU_ROUTE_NAMES:
        assert not hasattr(whergo.RationalMatrixOmega, name), f"RationalMatrixOmega.{name}"
    for path in Path(whergo.__file__).parent.glob("*.py"):
        for imported in _imported_modules(ast.parse(path.read_text(encoding="utf-8"))):
            assert imported.split(".")[0] not in TEST_MODULES, f"{path.name} imports {imported}"


def _used_names(node):
    """Every name and attribute name that a parsed node refers to."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_library_definition_is_used_exported_or_listed():
    # a top-level def or class of whergo is referred to by library code
    # outside its own body, exported in whergo.__all__, or listed with its
    # reason: helpers that only the tests call belong in the tests
    defined, used = [], set()
    for path in sorted(Path(whergo.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = node.name
                defined.append((path.stem, own))
            used.update(name for name in _used_names(node) if name != own)
    unused = sorted((module, name) for module, name in defined
                    if name not in used and name not in whergo.__all__)
    assert sorted(name for _, name in unused) == sorted(UNREFERENCED), unused


def test_every_compiled_table_is_read_by_library_code():
    # every field of the plan and of its layouts is read as an attribute
    # somewhere in the library: a table that nothing reads is compiled for
    # nothing
    read = {sub.attr for path in Path(whergo.__file__).parent.glob("*.py")
            for sub in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
    unread = [(cls.__name__, f.name) for cls in (engine.AnsatzPlan, engine._RowLayout)
              for f in dataclasses.fields(cls) if f.name not in read]
    assert unread == []


def test_spectral_point_has_no_signature_flag():
    # every route takes lambda = +1; the point carries only (rho, v)
    assert [f.name for f in dataclasses.fields(SpectralPoint)] == ["rho", "v"]


def test_vieta_suite_checks_the_engine_pairs(monkeypatch):
    assert run_suites(["vieta"])[0].passed
    real = engine._label_values

    def wrong_outside(*args):
        lab = real(*args)
        lab[2::2] = 1.0 / lab[1::2]         # +1/tau_in in place of -1/tau_in
        return lab
    monkeypatch.setattr(engine, "_label_values", wrong_outside)
    assert not run_suites(["vieta"])[0].passed


def test_residual_suite_gates_pole_cancellation(monkeypatch):
    # a canonical answer whose pole cancellation misses 1e-9 fails the
    # residual suite, like one that misses the factorisation or X(0) gate
    assert run_suites(["residual"])[0].passed
    real = engine.factorise

    def leaky(*args, **kwargs):
        out = real(*args, **kwargs)
        if not out.canonical:
            return out
        report = dataclasses.replace(out.residual_report, pole_cancellation=1e-8)
        return dataclasses.replace(out, residual_report=report)
    monkeypatch.setattr(engine, "factorise", leaky)
    (result,) = run_suites(["residual"])
    assert not result.passed and result.residual == 1e-8


def test_roundtrip_suite_skips_answers_that_are_not_canonical(monkeypatch):
    # an answer without M has nothing to rebuild: the suite skips it, as
    # the sigma suite does
    monkeypatch.setattr(engine, "factorise", lambda *args, **kwargs: engine.FactorisationOutcome(
        engine.Status.DEGENERATE, 0j, 1.0, 1))
    (result,) = run_suites(["roundtrip"])
    assert result.passed and result.residual == 0.0
