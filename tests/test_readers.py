"""One rule per kind of value (``srds.readers``): an integer is an int or a
numpy integer, a number a finite int, float or numpy float, and neither is
ever a bool.  Every public number and count parameter of the library reads
through it, so each refuses NaN, +-inf, a bool and a float where a count is
due with a ValueError naming the parameter, and runs a numpy scalar to the
same bits as the equal Python value.  The one exception is a limit: a sup
cap of inf or NaN, a truncation level of inf and a resolvent parameter of
inf mean "no limit" and run."""

import math
import warnings
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srds import (CoefficientField, CouplingTerm, EllipticOperator, PowerModulus, Problem,
                  SolverConfig, apply_resolvent, build_grid, build_mollifier, build_noise,
                  check_quasi_positive, cosine_neumann_basis, dissipativity_gap,
                  evolve_semigroup, fhn_system, gaussian_entry, named_g, residual_refinement,
                  sample_path, uniform_stream)
from srds.readers import read_flag, read_integer, read_list, read_number

_INTEGER_TYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32,
                  np.uint64)
_FLOAT_TYPES = (np.float16, np.float32, np.float64)


# --- the readers ----------------------------------------------------------------


@given(value=st.integers(-2**70, 2**70))
def test_an_integer_reads_as_itself(value):
    assert type(read_integer("k", value)) is int and read_integer("k", value) == value


@given(value=st.integers(-2**63, 2**64 - 1), kind=st.sampled_from(_INTEGER_TYPES))
def test_a_numpy_integer_reads_as_the_equal_int(value, kind):
    info = np.iinfo(kind)
    x = kind(min(max(value, info.min), info.max))
    assert type(read_integer("k", x)) is int and read_integer("k", x) == int(x)
    assert type(read_number("k", x)) is int and read_number("k", x) == int(x)


@given(value=st.floats(allow_nan=False, allow_infinity=False),
       kind=st.sampled_from(_FLOAT_TYPES))
def test_a_finite_number_reads_as_the_equal_python_float(value, kind):
    assert read_number("x", value) is value
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a float16 or float32 overflows to inf
        x = kind(value)
    if math.isfinite(x):
        assert type(read_number("x", x)) is float and read_number("x", x) == float(x)
    else:
        with pytest.raises(ValueError, match="^x must be a finite number, got -?inf$"):
            read_number("x", x)


@pytest.mark.parametrize("value", [True, False, np.True_, 2.0, np.float64(2.0), "2", None,
                                   [2], np.array(2)])
def test_what_is_no_integer(value):
    with pytest.raises(ValueError, match="^k must be an integer, got "):
        read_integer("k", value)


@pytest.mark.parametrize("value", [True, np.False_, math.nan, math.inf, -math.inf,
                                   np.float32(math.nan), 10**400, -10**400, "0.5", None,
                                   1j, np.longdouble(0.5), np.array(0.5)])
def test_what_is_no_number(value):
    with pytest.raises(ValueError, match="^x must be a finite number, got "):
        read_number("x", value)


def test_each_bound_names_the_argument_and_the_value():
    assert read_integer("k", 0, least=0, below=1) == 0
    assert read_number("x", 2, least=2) == 2 and read_number("x", 0.5, above=0) == 0.5
    for call, message in [
        (lambda: read_integer("k", -1, least=0), "k must be >= 0, got -1"),
        (lambda: read_integer("k", 4, below=4), "k must be < 4, got 4"),
        (lambda: read_number("x", 1.5, least=2), "x must be >= 2, got 1.5"),
        (lambda: read_number("x", 0, above=0), "x must be > 0, got 0"),
        (lambda: read_number("x", -0.0, above=0), r"x must be > 0, got -0.0"),
        (lambda: read_flag("f", 1), "f must be true or false, got 1"),
        (lambda: read_list("v", "12", read_integer), "v must be a list, got '12'"),
        (lambda: read_list("v", [1], read_integer, 2), "v must hold 2 entries, got 1"),
        (lambda: read_list("v", [1, 0], read_integer, least=1), r"v\[1\] must be >= 1, got 0"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


# --- every public number and count parameter ---------------------------------------


_GRID = build_grid(1, [1.0], [8])
_OP = EllipticOperator(_GRID, CoefficientField.constant(_GRID, a=1.0))
_U = np.linspace(-1.0, 2.0, 8)
_PROBLEM = Problem(_GRID, (_OP, _OP), fhn_system(),
                   build_noise([cosine_neumann_basis(_GRID, 2)] * 2, [np.array([0.1, 0.05])] * 2,
                               [named_g("lipschitz:1")] * 2))
# a study of residual_refinement short enough to run per drawn value
_RESIDUAL = (_PROBLEM, SolverConfig(dt=0.125, t_end=0.25), np.full((2, 8), 0.2))


def _path(p):
    return repr((p.master_seed, p.path_index, p.components, p.modes, p.n_fine,
                 p.dt_fine, p.increments.tobytes()))


def _config(c):
    return repr(c) + c.descriptor()


def _coupling(term):
    return repr((term.c1, term.c2))


class Param(NamedTuple):
    """A parameter as its refusals name it, its site at one value of it (as
    comparable data: a repr shows a numpy scalar kept where an int or a
    float belongs), whether it is a count, the valid values drawn, the
    non-finite values it reads as "no limit", and values below its range."""
    name: str
    call: Callable
    count: bool
    valid: st.SearchStrategy
    limits: tuple = ()
    below: tuple = ()


PARAMS = {
    "build_grid-dim": Param("dim", lambda x: repr(build_grid(x, [1.0], [8])), True,
                            st.just(1)),
    "build_grid-extent": Param("extents[0]", lambda x: repr(build_grid(1, [x], [8])), False,
                               st.floats(0.125, 8.0)),
    "build_grid-n_cells": Param("n_cells[0]", lambda x: repr(build_grid(1, [1.0], [x])),
                                True, st.integers(2, 64)),
    "uniform_stream-master_seed": Param(
        "master_seed", lambda x: uniform_stream(x, 0, 0, 0, 4).tobytes(), True,
        st.integers(0, 2**64 - 1)),
    "uniform_stream-path_index": Param(
        "path_index", lambda x: uniform_stream(0, x, 0, 0, 4).tobytes(), True,
        st.integers(0, 2**32 - 1)),
    "uniform_stream-component": Param(
        "component", lambda x: uniform_stream(0, 0, x, 0, 4).tobytes(), True,
        st.integers(0, 2**16 - 1)),
    "uniform_stream-mode": Param("mode", lambda x: uniform_stream(0, 0, 0, x, 4).tobytes(),
                                 True, st.integers(0, 2**16 - 1)),
    "uniform_stream-n": Param("n", lambda x: uniform_stream(0, 0, 0, 0, x).tobytes(), True,
                              st.integers(0, 8)),
    "gaussian_entry-step": Param("step", lambda x: repr(gaussian_entry(0, 0, 0, 0, x, 1e-3)),
                                 True, st.integers(0, 8)),
    "gaussian_entry-dt_fine": Param(
        "dt_fine", lambda x: repr(gaussian_entry(0, 0, 0, 0, 3, x)), False,
        st.floats(1e-6, 1.0)),
    "sample_path-master_seed": Param("master_seed",
                                     lambda x: _path(sample_path(x, 2, 2, 4, 1e-3)), True,
                                     st.integers(0, 2**64 - 1)),
    "sample_path-components": Param("components",
                                    lambda x: _path(sample_path(0, x, 2, 4, 1e-3)), True,
                                    st.integers(1, 3)),
    "sample_path-modes": Param("modes", lambda x: _path(sample_path(0, 2, x, 4, 1e-3)), True,
                               st.integers(1, 3)),
    "sample_path-n_fine": Param("n_fine", lambda x: _path(sample_path(0, 2, 2, x, 1e-3)),
                                True, st.integers(1, 8)),
    "sample_path-dt_fine": Param("dt_fine", lambda x: _path(sample_path(0, 2, 2, 4, x)),
                                 False, st.floats(1e-6, 1.0)),
    "sample_path-path_index": Param(
        "path_index", lambda x: _path(sample_path(0, 2, 2, 4, 1e-3, path_index=x)), True,
        st.integers(0, 2**32 - 1)),
    "cosine_neumann_basis-modes": Param(
        "modes", lambda x: cosine_neumann_basis(_GRID, x).values.tobytes(), True,
        st.integers(1, 8)),
    "PowerModulus-constant": Param("modulus constant",
                                   lambda x: repr(vars(PowerModulus(x))), False,
                                   st.floats(-8.0, 8.0)),
    "PowerModulus-power": Param("modulus power", lambda x: repr(vars(PowerModulus(1.0, x))),
                                False, st.floats(0.125, 4.0)),
    "build_mollifier-n_max": Param(
        "n_max", lambda x: build_mollifier(PowerModulus(1.0), x).a_seq.tobytes(), True,
        st.integers(1, 2)),
    "CouplingTerm-c1": Param("coupling 'custom' growth constant c1",
                             lambda x: _coupling(CouplingTerm(None, x, 1.0, 1.0)),
                             False, st.floats(0.0, 8.0)),
    "CouplingTerm-c2": Param("coupling 'custom' growth constant c2",
                             lambda x: _coupling(CouplingTerm(None, 0.0, x, 1.0)),
                             False, st.floats(0.0, 8.0)),
    "check_quasi_positive-grid_samples": Param(
        "grid_samples", lambda x: repr(check_quasi_positive(fhn_system(), grid_samples=x)),
        True, st.integers(1, 200)),
    "check_quasi_positive-range_m": Param(
        "range_m",
        lambda x: repr(check_quasi_positive(fhn_system(), grid_samples=50, range_m=x)),
        False, st.floats(0.125, 8.0)),
    "check_quasi_positive-lipschitz_m": Param(
        "Lipschitz constant",
        lambda x: repr(check_quasi_positive(fhn_system(), grid_samples=50, lipschitz_m=x)),
        False, st.floats(0.0, 8.0)),
    "evolve_semigroup-t": Param("t", lambda x: evolve_semigroup(_OP, x, _U, 4).tobytes(),
                                False, st.floats(1e-3, 1.0)),
    "evolve_semigroup-n_substeps": Param(
        "n_substeps", lambda x: evolve_semigroup(_OP, 0.25, _U, x).tobytes(), True,
        st.integers(1, 8)),
    "EllipticOperator.solver-dt": Param("dt", lambda x: _OP.solver(x).solve(_U).tobytes(),
                                        False, st.floats(1e-4, 1.0)),
    "EllipticOperator.stepper-dt": Param("dt", lambda x: _OP.stepper(x).solve(_U).tobytes(),
                                         False, st.floats(1e-4, 1.0)),
    "SolverConfig-dt": Param("dt", lambda x: _config(SolverConfig(dt=x, t_end=1.0)), False,
                             st.integers(0, 10).map(lambda k: 2.0**-k)),
    "SolverConfig-t_end": Param("t_end", lambda x: _config(SolverConfig(dt=0.125, t_end=x)),
                                False, st.integers(1, 16).map(lambda n: n / 8)),
    "SolverConfig-store_stride": Param(
        "store_stride",
        lambda x: _config(SolverConfig(dt=0.125, t_end=1.0, store_stride=x)), True,
        st.integers(1, 8)),
    "SolverConfig-sup_cap": Param(
        "sup_cap", lambda x: _config(SolverConfig(dt=0.125, t_end=1.0, sup_cap=x)), False,
        st.floats(0.125, 8.0), limits=(math.inf, math.nan), below=(0.0, -1.0)),
    "Problem-level": Param("truncation level", lambda x: replace(_PROBLEM, level=x).digest(),
                           False, st.floats(1.0, 64.0), limits=(math.inf,), below=(0.5,)),
    "apply_resolvent-lambda": Param("lambda", lambda x: apply_resolvent(_OP, x, _U).tobytes(),
                                    False, st.floats(0.125, 8.0), limits=(math.inf,),
                                    below=(0.0, -1.0)),
    "CoefficientField.constant-a": Param(
        "a", lambda x: CoefficientField.constant(_GRID, a=x).descriptor(), False,
        st.floats(0.125, 8.0)),
    "CoefficientField.constant-c": Param(
        "c", lambda x: CoefficientField.constant(_GRID, c=x).descriptor(), False,
        st.floats(0.0, 8.0)),
    "dissipativity_gap-mode": Param(
        "mode", lambda x: repr(dissipativity_gap(_PROBLEM.reaction, 0, _U, _U[::-1], mode=x)),
        True, st.sampled_from([1, 2]), below=(0,)),
    "residual_refinement-n_paths": Param(
        "n_paths", lambda x: residual_refinement(*_RESIDUAL, n_paths=x).tobytes(), True,
        st.integers(1, 2), below=(0,)),
    "residual_refinement-refinements": Param(
        "refinements", lambda x: residual_refinement(*_RESIDUAL, refinements=x).tobytes(),
        True, st.integers(0, 2), below=(-1,)),
}


def _outcome(call, x):
    """What ``call(x)`` returns, or the class and message it raises, with
    every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return "returned", call(x)
        except Exception as exc:  # the outcome is compared, whatever it is
            return "raised", type(exc), str(exc)


def _numpy_forms(value, count: bool) -> list:
    if count:
        return [kind(value) for kind in _INTEGER_TYPES
                if np.iinfo(kind).min <= value <= np.iinfo(kind).max]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a float16 overflows to inf
        return [kind(value) for kind in _FLOAT_TYPES]


def _refusals(param, value) -> list:
    """The values of the kind ``param`` refuses, around its valid ``value``."""
    limits = {str(float(x)) for x in param.limits}
    bad = [x for x in (-math.inf, math.nan, math.inf, np.float64(math.nan),
                       np.float32(math.inf)) if str(float(x)) not in limits]
    bad += [True, False, np.True_, *param.below]
    if param.count:  # a float where a count is due
        bad += [float(value), np.float64(value), 0.5]
    return bad


@pytest.mark.parametrize("param", list(PARAMS.values()), ids=list(PARAMS))
def test_every_public_number_and_count_refuses_what_the_cli_refuses(param):
    @settings(max_examples=5)
    @given(value=param.valid)
    def check(value):
        assert _outcome(param.call, value)[0] == "returned"
        for x in param.limits:  # no limit, as None is
            assert _outcome(param.call, x)[0] == "returned", x
        for x in _refusals(param, value):
            got = _outcome(param.call, x)
            assert got[:2] == ("raised", ValueError), (x, got)
            assert got[2].startswith(f"{param.name} must be "), (x, got)
            assert got[2].endswith(f", got {getattr(x, 'item', lambda: x)()!r}"), (x, got)

    check()


@pytest.mark.parametrize("param", list(PARAMS.values()), ids=list(PARAMS))
def test_every_public_number_and_count_reads_a_numpy_scalar_as_a_python_one(param):
    # a numpy scalar runs to the bits of the equal Python value, and one
    # equal to a valid value is valid
    @settings(max_examples=10)
    @given(value=param.valid)
    def check(value):
        for x in _numpy_forms(value, param.count):
            got = _outcome(param.call, x)
            assert got == _outcome(param.call, x.item()), (x, got)
            assert x != value or got[0] == "returned", (x, got)

    check()
