"""Misuse of the public entry points, each with the typed error it raises."""
import dataclasses
import functools
import math

import numpy as np
import pytest

from hjbsl.cli import StudyConfig
from hjbsl.errors import BadParams, ConfigError, RegularityViolation, TooLarge
from hjbsl.geometry import (
    Disk,
    Domain,
    FunctionField,
    Interval,
    NormalField,
    RectWithHole,
    RotatedNormalField,
    layer_distance,
    oblique_projection,
)
from hjbsl.markov import estimate_sojourn, policy_cost, transition_law
from hjbsl.mesh import (
    Mesh,
    build_disk_mesh,
    build_interval_mesh,
    build_rect_with_hole_mesh,
    read_mesh,
    write_mesh,
)
from hjbsl.problems import get_benchmark, make_test1, make_test2, make_test3
from hjbsl.scheme import (
    SchemeParams,
    ValueFunction,
    apply_S,
    consistency_residual,
    sweep,
)

TEST1 = make_test1(0.05)
TEST2 = make_test2("oblique", n_a=4)
TEST3 = make_test3(n_a=4)
EXIT_PARAMS = SchemeParams(dt=0.1, c_bar=TEST3.c_bar)
# test1 is posed on [0, 1] with T = 1, so four steps of 0.25
PARAMS = SchemeParams(dt=0.25, c_bar=TEST1.c_bar)
DISK_PARAMS = SchemeParams(dt=0.125, c_bar=TEST2.c_bar)
TRIANGLE = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
VERTEX_LINES = ["0.0 0.0", "1.0 0.0", "0.0 1.0"]


def stay(m, i):
    return (0, 0)


def exit_chain():
    """test3 with four controls a, and its mesh at dx 0.2."""
    dom = TEST3.problem.domain
    return TEST3.problem, build_rect_with_hole_mesh(dom.bounds, dom.hole_center,
                                                    dom.hole_radius, 0.2)


def steer_to(pair):
    """A policy that gives pair at odd vertices from step 1 on, a good pair
    elsewhere."""
    return lambda m, i: pair if m and i % 2 else (i % 4, 0)


def reads_a():
    """test3 with four controls a, control_free_cost set, and an f that reads
    a: each control's own constant cost."""
    assert TEST3.problem.control_free_cost
    return dataclasses.replace(TEST3.problem, f=lambda t, X, a: np.full(len(X), a[0]))


def unit_mesh():
    return build_interval_mesh(0.0, 1.0, 0.25)


@functools.cache
def unit_vf():
    """test1 swept on unit_mesh: four steps on five vertices."""
    return sweep(TEST1.problem, unit_mesh(), PARAMS)


def query(t, x, rows):
    """vf(t, x) on the one point x, or on the rows [x] when rows is set."""
    return lambda tmp: unit_vf()(t, [x] if rows else x)


def half_mesh():
    """A mesh of [0, 0.5], not of test1's [0, 1]."""
    return build_interval_mesh(0.0, 0.5, 0.05)


def mesh_file(tmp_path, vertex_lines, simplex_lines, n_simplices=None, trailing=(),
              version=2):
    """A 2D hjbmesh file of the given format version; its header counts
    n_simplices when given, and the trailing lines follow what it counts."""
    n_s = len(simplex_lines) if n_simplices is None else n_simplices
    path = tmp_path / "m.mesh"
    path.write_text("\n".join([f"hjbmesh {version} 2 {len(vertex_lines)} {n_s}",
                               *vertex_lines, *simplex_lines, *trailing]) + "\n")
    return path


def on_disk(center):
    """test2's problem posed on the unit disk about center."""
    return dataclasses.replace(TEST2.problem, domain=Disk(center, 1.0))


def disk_file(tmp_path):
    path = tmp_path / "disk.mesh"
    write_mesh(build_disk_mesh((0.0, 0.0), 1.0, 0.5), path)
    return path


def with_handle(**handles):
    """test1 on unit_mesh swept with the given handles replaced."""
    return lambda tmp: sweep(dataclasses.replace(TEST1.problem, **handles), unit_mesh(),
                             PARAMS)


# the probe (value, gradient, hessian) of sin on the interval
SIN_PROBE = (lambda x: math.sin(x[0]), np.cos, lambda x: -np.sin(x)[None, :])


def probe_with(value=SIN_PROBE[0], hessian=SIN_PROBE[2], k=0):
    """consistency_residual of test1 at x = 0.5 and step k, with the probe's
    value or Hessian handle replaced."""
    return lambda tmp: consistency_residual(TEST1.problem, (value, SIN_PROBE[1], hessian), k,
                                            [0.5], 0.0, 0.0, PARAMS)


def monte_carlo(seed):
    return lambda tmp: policy_cost(TEST1.problem, unit_mesh(), stay, 0, 0, PARAMS,
                                   mode="monte_carlo", n_paths=2, seed=seed)


def case(name, error, call, match=None):
    return pytest.param(error, match, call, id=name)


CASES = [
    # a query with a time or point that is not real numbers, as one point
    # and as rows: strings, complex numbers, None, a sequence for the time,
    # ragged rows, and nodal values that are strings
    *[case(f"vf-{label}-{'rows' if rows else 'point'}", BadParams, query(t, x, rows),
           match="real numbers|one number|not an array")
      for rows in (False, True)
      for label, t, x in (("point-string", 0.0, "a"), ("point-strings", 0.0, ["a"]),
                          ("point-complex", 0.0, [0.5 + 1j]),
                          ("point-complex-array", 0.0, np.array([0.5 + 1j])),
                          ("point-none", 0.0, [None]), ("point-bool", 0.0, [True]),
                          ("time-none", None, [0.5]), ("time-complex", 1j, [0.5]),
                          ("time-sequence", [0.0], [0.5]), ("time-string", "0", [0.5]),
                          ("time-bool", True, [0.5]))],
    case("vf-rows-ragged", BadParams,
         lambda tmp: unit_vf()(0.0, [[0.5], [0.25, 0.5]]), match="not an array"),
    # a mesh of another domain
    case("sweep-mesh-of-a-shorter-interval", BadParams,
         lambda tmp: sweep(TEST1.problem, half_mesh(), PARAMS)),
    case("sweep-mesh-of-a-shifted-disk", BadParams,
         lambda tmp: sweep(TEST2.problem, build_disk_mesh((0.2, 0.0), 1.0, 0.5), DISK_PARAMS)),
    case("policy_cost-mesh-of-another-domain", BadParams,
         lambda tmp: policy_cost(TEST1.problem, half_mesh(), stay, 0, 0, PARAMS)),
    case("transition_law-mesh-of-another-domain", BadParams,
         lambda tmp: transition_law(TEST1.problem, half_mesh(), 0, 0, 0.0, 0.0, PARAMS)),
    # a hand-built value function whose mesh and problem differ in dimension,
    # queried at one point and as rows
    *[case(f"ValueFunction-1d-mesh-of-a-disk-{form}", BadParams,
           lambda tmp, x=x: ValueFunction(np.zeros((2, 5)), 0.25, unit_mesh(),
                                          TEST2.problem)(0.0, x),
           match="^a 1D mesh of a 2D domain$")
      for form, x in (("point", [0.5]), ("rows", [[0.5]]))],
    # derived values and caches are not constructor arguments
    case("Mesh-mesh_size", TypeError,
         lambda tmp: Mesh(vertices=TRIANGLE, simplices=[[0, 1, 2]],
                          mesh_size=1.5, shape_constant=0.2), match="mesh_size"),
    case("Mesh-_cell_size", TypeError,
         lambda tmp: Mesh(vertices=TRIANGLE, simplices=[[0, 1, 2]],
                          _cell_size=1.0, mesh_size=1.5, shape_constant=0.2),
         match="_cell_size"),
    # what the Mesh constructor rejects
    case("Mesh-nan-vertex", BadParams,
         lambda tmp: Mesh([[0.0, 0.0], [1.0, math.nan], [0.0, 1.0]], [[0, 1, 2]])),
    case("Mesh-inf-vertex", BadParams,
         lambda tmp: Mesh([[0.0, 0.0], [math.inf, 0.0], [0.0, 1.0]], [[0, 1, 2]])),
    case("Mesh-simplex-too-narrow", BadParams,
         lambda tmp: Mesh(TRIANGLE, [[0, 1]])),
    case("Mesh-simplex-too-wide", BadParams,
         lambda tmp: Mesh([[0.0], [1.0]], [[0, 1, 1]])),
    case("Mesh-index-too-large", BadParams,
         lambda tmp: Mesh(TRIANGLE, [[0, 1, 3]])),
    case("Mesh-index-negative", BadParams,
         lambda tmp: Mesh(TRIANGLE, [[0, 1, -1]])),
    case("Mesh-index-not-integer", BadParams,
         lambda tmp: Mesh(TRIANGLE, [[0, 1, 2.7]]), match="integers"),
    # two unit triangles 1e6 apart need about 2.0e12 grid cells; the count
    # is checked before the grid is made
    case("Mesh-location-grid-too-large", BadParams,
         lambda tmp: Mesh(TRIANGLE + [[1e6, 1e6], [1e6 + 1.0, 1e6], [1e6, 1e6 + 1.0]],
                          [[0, 1, 2], [3, 4, 5]]), match="cells"),
    case("Mesh-degenerate-simplex", RegularityViolation,
         lambda tmp: Mesh([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [[0, 1, 2]])),
    case("Mesh-of-another-domain", BadParams,
         lambda tmp: sweep(on_disk((5.0, 0.0)), Mesh(TRIANGLE, [[0, 1, 2]]), DISK_PARAMS),
         match="discretize"),
    case("Mesh-2d-of-an-interval", BadParams,
         lambda tmp: sweep(TEST1.problem, Mesh(TRIANGLE, [[0, 1, 2]]), PARAMS),
         match="2D mesh of a 1D"),
    # what read_mesh rejects
    case("read_mesh-nan-vertex", BadParams,
         lambda tmp: read_mesh(mesh_file(tmp, ["0.0 0.0", "nan 0.0", "0.0 1.0"], ["0 1 2"]))),
    case("read_mesh-truncated", BadParams,
         lambda tmp: read_mesh(mesh_file(tmp, VERTEX_LINES, [], n_simplices=1))),
    case("read_mesh-index-out-of-range", BadParams,
         lambda tmp: read_mesh(mesh_file(tmp, VERTEX_LINES, ["0 1 7"]))),
    case("read_mesh-of-another-domain", BadParams,
         lambda tmp: sweep(on_disk((0.2, 0.0)), read_mesh(disk_file(tmp)), DISK_PARAMS),
         match="discretize"),
    # lines past the header's counts: a header that undercounts its
    # simplices used to drop triangles silently
    case("read_mesh-extra-vertex-line", BadParams,
         lambda tmp: read_mesh(mesh_file(tmp, VERTEX_LINES, ["0 1 2"], trailing=["0.5 0.5"])),
         match="past"),
    case("read_mesh-extra-simplex-line", BadParams,
         lambda tmp: read_mesh(mesh_file(tmp, VERTEX_LINES, ["0 1 2"], trailing=["0 1 2"])),
         match="past"),
    case("read_mesh-version-1", BadParams,
         lambda tmp: read_mesh(mesh_file(tmp, VERTEX_LINES, ["0 1 2"], version=1)),
         match="'hjbmesh 1'"),
    # a one-point signed distance of a point with the wrong number of
    # coordinates: the interval read the first and ignored the rest
    case("signed_distance-interval-two-coordinates", BadParams,
         lambda tmp: Interval(0.0, 1.0).signed_distance([0.5, 7.0]), match="shape"),
    case("signed_distance-disk-three-coordinates", BadParams,
         lambda tmp: Disk().signed_distance([0.1, 0.2, 0.3]), match="shape"),
    case("signed_distance-rect_with_hole-one-coordinate", BadParams,
         lambda tmp: RectWithHole().signed_distance([0.9]), match="shape"),
    case("signed_distance-base-class-four-coordinates", BadParams,
         lambda tmp: Domain.signed_distance(Disk(), [0.1, 0.2, 0.3, 0.4]), match="shape"),
    case("layer_distance-two-coordinates-on-an-interval", BadParams,
         lambda tmp: layer_distance(Interval(0.0, 1.0), 0.2, [0.1, 9.0]), match="shape"),
    # rows or a point of the wrong shape, which were reshaped or truncated
    case("signed_distance_many-interval-two-columns", BadParams,
         lambda tmp: Interval(0, 1).signed_distance_many([[0.1, 5.0]]), match="shape"),
    case("signed_distance_many-disk-flat-four", BadParams,
         lambda tmp: Disk().signed_distance_many([0.1, 0.2, 0.3, 0.4]), match="shape"),
    case("signed_distance_many-disk-three-columns", BadParams,
         lambda tmp: Disk().signed_distance_many([[0.1, 0.2, 0.3]]), match="shape"),
    case("first_crossing_many-interval-two-columns", BadParams,
         lambda tmp: Interval(0, 1).first_crossing_many([[0.5, 0.5]], [[1.5, 1.5]]),
         match="shape"),
    case("locate_many-interval-two-columns", BadParams,
         lambda tmp: unit_mesh().locate_many([[0.5, 0.75]]), match="shape"),
    case("oblique_projection-disk-three-coordinates", BadParams,
         lambda tmp: oblique_projection(Disk(), NormalField(Disk()), None, [1.2, 0, 0]),
         match="shape"),
    case("oblique_projection-interval-two-coordinates", BadParams,
         lambda tmp: oblique_projection(Interval(0, 1), NormalField(Interval(0, 1)), None,
                                        [1.2, 5.0]), match="shape"),
    case("build_disk_mesh-three-coordinate-center", BadParams,
         lambda tmp: build_disk_mesh((0, 0, 0), 1.0, 0.5), match="shape"),
    case("consistency_residual-interval-two-coordinates", BadParams,
         lambda tmp: consistency_residual(TEST1.problem, SIN_PROBE, 0, [0.5, 7.0],
                                          TEST1.problem.controls_a[0],
                                          TEST1.problem.controls_b[0], PARAMS),
         match="^point of shape"),
    # handle results, field results, nodal values and vertices that are
    # not real numbers or not of the expected shape
    case("sweep-f-complex", BadParams,
         with_handle(f=lambda t, X, a: np.zeros(len(X), dtype=complex)), match="^f "),
    case("sweep-psi-strings", BadParams,
         with_handle(psi=lambda X: np.full(len(X), "a")), match="^psi "),
    case("sweep-mu-bool", BadParams,
         with_handle(mu=lambda t, X, a: np.ones((len(X), 1), dtype=bool)), match="^mu "),
    # a terminal cost that is not finite, refused by the chain as by sweep
    case("policy_cost-psi-not-finite", BadParams,
         lambda tmp: policy_cost(dataclasses.replace(TEST1.problem,
                                                     psi=lambda X: np.full(len(X), math.inf)),
                                 unit_mesh(), stay, 0, 2, PARAMS),
         match="^psi returned a value that is not finite"),
    # control_free_cost set on test3, whose f then reads its control a
    *[case(f"{name}-control_free_cost-f-reads-a", BadParams, call,
           match="^control_free_cost is set")
      for name, call in (
          ("sweep", lambda tmp: sweep(reads_a(), exit_chain()[1], EXIT_PARAMS)),
          ("policy_cost-exact",
           lambda tmp: policy_cost(reads_a(), exit_chain()[1], stay, 0, 7, EXIT_PARAMS)),
          ("policy_cost-monte_carlo",
           lambda tmp: policy_cost(reads_a(), exit_chain()[1], stay, 0, 7, EXIT_PARAMS,
                                   mode="monte_carlo", n_paths=10)))],
    case("FunctionField-complex", BadParams,
         lambda tmp: FunctionField(lambda P, b: P + 0j)(np.ones((2, 2)), None),
         match="^gamma "),
    case("apply_S-next_values-too-many", BadParams,
         lambda tmp: apply_S(TEST1.problem, unit_mesh(), np.zeros(10), 0, 1, PARAMS),
         match="next_values of shape"),
    case("apply_S-next_values-complex", BadParams,
         lambda tmp: apply_S(TEST1.problem, unit_mesh(), np.zeros(5, dtype=complex), 0, 1,
                             PARAMS), match="next_values"),
    case("Mesh-complex-vertices", BadParams,
         lambda tmp: Mesh(np.array(TRIANGLE, dtype=complex), [[0, 1, 2]]),
         match="vertices"),
    case("Mesh-string-vertices", BadParams,
         lambda tmp: Mesh([["a", "0"], ["1", "0"], ["0", "1"]], [[0, 1, 2]]),
         match="vertices"),
    case("Mesh-bool-vertices", BadParams,
         lambda tmp: Mesh([[False, False], [True, False], [False, True]], [[0, 1, 2]]),
         match="vertices"),
    # scalar arguments that are strings, bools or infinite
    case("RectWithHole-infinite-bound", BadParams,
         lambda tmp: RectWithHole(bounds=(-1, math.inf, -0.5, 0.5)), match="bounds"),
    case("build_disk_mesh-infinite-radius", BadParams,
         lambda tmp: build_disk_mesh((0, 0), math.inf, 0.1), match="radius"),
    case("Interval-strings", BadParams, lambda tmp: Interval("0", "1"),
         match="real numbers"),
    case("Disk-radius-string", BadParams, lambda tmp: Disk(radius="1"),
         match="radius must be real numbers"),
    case("Disk-radius-bool", BadParams, lambda tmp: Disk(radius=True),
         match="radius must be real numbers"),
    case("RectWithHole-hole_radius-string", BadParams,
         lambda tmp: RectWithHole(hole_radius="0.2"), match="hole_radius must be real"),
    case("SchemeParams-dt-string", BadParams,
         lambda tmp: SchemeParams(dt="0.1", c_bar=0.2), match="dt must be real"),
    case("SchemeParams-dt-bool", BadParams,
         lambda tmp: SchemeParams(dt=True, c_bar=0.2), match="dt must be real"),
    case("Problem-T-string", BadParams,
         lambda tmp: dataclasses.replace(TEST1.problem, T="1"), match="T must be real"),
    case("build_interval_mesh-dx-string", BadParams,
         lambda tmp: build_interval_mesh(0, 1, "0.1"), match="dx must be real"),
    case("layer_distance-delta-string", BadParams,
         lambda tmp: layer_distance(Disk(), "0.1", (0.9, 0.0)), match="delta must be real"),
    # a NaN that switched a check off
    case("layer_distance-nan", BadParams,
         lambda tmp: layer_distance(Disk(), math.nan, (0.9, 0.0))),
    case("oblique_projection-r_max-nan", BadParams,
         lambda tmp: oblique_projection(Disk(), NormalField(Disk()), None, (5.0, 0.0),
                                        r_max=math.nan)),
    # the start vertex, the step and the number of paths
    case("policy_cost-vertex-negative", BadParams,
         lambda tmp: policy_cost(TEST1.problem, unit_mesh(), stay, 0, -1, PARAMS)),
    case("policy_cost-vertex-too-large", BadParams,
         lambda tmp: policy_cost(TEST1.problem, unit_mesh(), stay, 0, 99, PARAMS)),
    case("policy_cost-step-past-N", BadParams,
         lambda tmp: policy_cost(TEST1.problem, unit_mesh(), stay, 9, 0, PARAMS)),
    case("policy_cost-n_paths-not-integer", BadParams,
         lambda tmp: policy_cost(TEST1.problem, unit_mesh(), stay, 0, 0, PARAMS,
                                 mode="monte_carlo", n_paths=2.5)),
    case("transition_law-vertex-negative", BadParams,
         lambda tmp: transition_law(TEST1.problem, unit_mesh(), 0, -1, 0.0, 0.0, PARAMS)),
    case("transition_law-vertex-too-large", BadParams,
         lambda tmp: transition_law(TEST1.problem, unit_mesh(), 0, 99, 0.0, 0.0, PARAMS)),
    case("apply_S-vertex-negative", BadParams,
         lambda tmp: apply_S(TEST1.problem, unit_mesh(), np.zeros(5), 0, -1, PARAMS)),
    case("apply_S-vertex-too-large", BadParams,
         lambda tmp: apply_S(TEST1.problem, unit_mesh(), np.zeros(5), 0, 99, PARAMS)),
    case("estimate_sojourn-n_paths-not-integer", BadParams,
         lambda tmp: estimate_sojourn(TEST1.problem, unit_mesh(), stay, PARAMS, n_paths=2.5)),
    # more Monte Carlo draws than the fixed limit, refused before any is made
    case("policy_cost-n_paths-too-many", TooLarge,
         lambda tmp: policy_cost(TEST1.problem, unit_mesh(), stay, 0, 0, PARAMS,
                                 mode="monte_carlo", n_paths=10 ** 12), match="draw limit"),
    # at k = N the paths walk no step but each still holds its state and cost
    case("policy_cost-n_paths-too-many-at-horizon", TooLarge,
         lambda tmp: policy_cost(TEST1.problem, unit_mesh(), stay, 4, 0, PARAMS,
                                 mode="monte_carlo", n_paths=10 ** 12), match="draw limit"),
    case("estimate_sojourn-n_paths-too-many", TooLarge,
         lambda tmp: estimate_sojourn(TEST1.problem, unit_mesh(), stay, PARAMS,
                                      n_paths=10 ** 12), match="draw limit"),
    # a nested-sequence policy with no pair for a step or a vertex the
    # chain from vertex 2 reaches, or one that cannot be subscripted
    *[case(f"policy_cost-policy-{label}", BadParams,
           lambda tmp, policy=policy: policy_cost(TEST1.problem, unit_mesh(), policy, 0, 2,
                                                  PARAMS), match=match)
      for label, policy, match in (
          ("one-step", [[(0, 0)] * 5], "^policy has no pair at step 1, vertex "),
          ("dict-of-one-step", {0: [(0, 0)] * 5}, "^policy has no pair at step 1, vertex "),
          ("two-vertices", [[(0, 0)] * 2] * 4, "^policy has no pair at step 0, vertex 2$"),
          ("an-integer", 5, "^policy has no pair at step 0, vertex 2$"),
          ("steps-of-None", [None] * 4, "^policy has no pair at step 0, vertex 2$"))],
    # integers that were read as another number, or were not checked: a
    # bool, a float, a negative or too large seed, and steps outside 0..N-1
    case("Problem-n_sigma-bool", BadParams,
         lambda tmp: dataclasses.replace(TEST1.problem, n_sigma=True), match="^n_sigma "),
    # control sets tested by their length, flags that must be bools
    case("Problem-controls_a-empty-array", BadParams,
         lambda tmp: dataclasses.replace(TEST1.problem, controls_a=np.array([])),
         match="^control sets must be nonempty"),
    case("Problem-controls_b-number", BadParams,
         lambda tmp: dataclasses.replace(TEST1.problem, controls_b=1.0),
         match="^controls_b must be a sequence"),
    case("Problem-time_independent_dynamics-string", BadParams,
         lambda tmp: dataclasses.replace(TEST1.problem, time_independent_dynamics="yes"),
         match="^time_independent_dynamics must be a bool"),
    case("Problem-control_free_cost-int", BadParams,
         lambda tmp: dataclasses.replace(TEST1.problem, control_free_cost=1),
         match="^control_free_cost must be a bool"),
    # a domain, field or handle of the wrong kind, refused at construction
    *[case(f"Problem-{name}-{label}", BadParams,
           lambda tmp, name=name, value=value: dataclasses.replace(TEST3.problem,
                                                                   **{name: value}),
           match=match)
      for name, label, value, match in (
          ("domain", "string", "disk", "^domain must be of type Domain, got str$"),
          ("gamma", "string", "normal", "^gamma must be of type ObliqueField, got str$"),
          ("sigma", "None", None, "^sigma must be callable"),
          ("psi", "number", 3, "^psi must be callable"),
          ("exact_solution", "number", 1.0, "^exact_solution must be callable"))],
    # a mesh or params of the wrong type, refused before either is read
    *[case(f"{name}-{label}", BadParams,
           lambda tmp, call=call, inputs=inputs: call(TEST3.problem, *inputs()), match=match)
      for label, match, inputs in (
          ("mesh-string", "^mesh must be of type Mesh, got str$",
           lambda: ("mesh", EXIT_PARAMS)),
          ("params-dict", "^params must be of type SchemeParams, got dict$",
           lambda: (exit_chain()[1], {"dt": 0.1})))
      for name, call in (
          ("sweep", sweep),
          ("policy_cost", lambda pr, mesh, params: policy_cost(pr, mesh, stay, 0, 7, params)),
          ("estimate_sojourn",
           lambda pr, mesh, params: estimate_sojourn(pr, mesh, stay, params, n_paths=10)))],
    case("transition_law-mesh-None", BadParams,
         lambda tmp: transition_law(exit_chain()[0], None, 0, 7, 0.0, 0.0, EXIT_PARAMS),
         match="^mesh must be of type Mesh, got NoneType$"),
    case("apply_S-params-tuple", BadParams,
         lambda tmp: apply_S(*exit_chain(), np.zeros(5), 0, 7, (0.1, 0.25)),
         match="^params must be of type SchemeParams, got tuple$"),
    case("consistency_residual-params-dict", BadParams,
         lambda tmp: consistency_residual(TEST3.problem, (lambda x: 0.0, np.zeros_like,
                                                          lambda x: np.zeros((2, 2))),
                                          0, [0.0, 0.0], 0.0, 0.0, {"dt": 0.1}),
         match="^params must be of type SchemeParams, got dict$"),
    # a problem of the wrong type, refused first by every entry point
    *[case(f"{name}-problem-string", BadParams, lambda tmp, call=call: call("problem"),
           match="^problem must be of type Problem, got str$")
      for name, call in (
          ("sweep", lambda pr: sweep(pr, unit_mesh(), PARAMS)),
          ("apply_S", lambda pr: apply_S(pr, unit_mesh(), np.zeros(5), 0, 0, PARAMS)),
          ("policy_cost", lambda pr: policy_cost(pr, unit_mesh(), stay, 0, 0, PARAMS)),
          ("estimate_sojourn",
           lambda pr: estimate_sojourn(pr, unit_mesh(), stay, PARAMS, n_paths=2)),
          ("transition_law",
           lambda pr: transition_law(pr, unit_mesh(), 0, 0, 0.0, 0.0, PARAMS)),
          ("consistency_residual",
           lambda pr: consistency_residual(pr, SIN_PROBE, 0, [0.5], 0.0, 0.0, PARAMS)))],
    # a hand-built value function, refused at construction
    *[case(f"ValueFunction-{label}", BadParams,
           lambda tmp, args=args: ValueFunction(*args()), match=match)
      for label, match, args in (
          ("mesh-string", "^mesh must be of type Mesh, got str$",
           lambda: (np.zeros((2, 5)), 0.25, "mesh", TEST1.problem)),
          ("problem-string", "^problem must be of type Problem, got str$",
           lambda: (np.zeros((2, 5)), 0.25, unit_mesh(), "problem")),
          ("dt-zero", "^dt must be positive and finite, got 0.0$",
           lambda: (np.zeros((2, 5)), 0.0, unit_mesh(), TEST1.problem)),
          ("dt-nan", "^dt must be positive and finite, got nan$",
           lambda: (np.zeros((2, 5)), math.nan, unit_mesh(), TEST1.problem)),
          ("dt-string", "^dt must be real numbers",
           lambda: (np.zeros((2, 5)), "0.25", unit_mesh(), TEST1.problem)),
          ("values-strings", "^values must be real numbers",
           lambda: ([["a"] * 5] * 2, 0.25, unit_mesh(), TEST1.problem)),
          ("values-one-dimensional", r"^values of shape \(5,\)",
           lambda: (np.zeros(5), 0.25, unit_mesh(), TEST1.problem)),
          ("values-no-rows", r"^values of shape \(0, 5\)",
           lambda: (np.zeros((0, 5)), 0.25, unit_mesh(), TEST1.problem)),
          ("values-a-column-per-vertex-too-many", r"^values of shape \(2, 7\)",
           lambda: (np.zeros((2, 7)), 0.25, unit_mesh(), TEST1.problem)))],
    *[case(f"policy_cost-seed-{label}", BadParams, monte_carlo(seed), match="^seed ")
      for label, seed in (("float", 1.5), ("bool", True), ("negative", -1),
                          ("string", "x"), ("above-2**64-1", 2 ** 64))],
    case("estimate_sojourn-seed-negative", BadParams,
         lambda tmp: estimate_sojourn(TEST1.problem, unit_mesh(), stay, PARAMS, n_paths=2,
                                      seed=-1), match="^seed "),
    case("get_benchmark-n_a-float", BadParams,
         lambda tmp: get_benchmark("test2_oblique", n_a=2.5), match="^n_a "),
    case("get_benchmark-n_a-bool", BadParams,
         lambda tmp: get_benchmark("test3_exit", n_a=True), match="^n_a "),
    case("apply_S-step-float", BadParams,
         lambda tmp: apply_S(TEST1.problem, unit_mesh(), np.zeros(5), 1.5, 1, PARAMS),
         match="^step k "),
    case("transition_law-step-float", BadParams,
         lambda tmp: transition_law(TEST1.problem, unit_mesh(), 1.5, 1, 0.0, 0.0, PARAMS),
         match="^step k "),
    case("consistency_residual-step-negative", BadParams, probe_with(k=-3),
         match="^step k "),
    case("consistency_residual-step-N", BadParams, probe_with(k=4), match="^step k "),
    # study ladders that raised a bare TypeError, or a bool ladder that
    # failed only in run_study
    *[case(f"StudyConfig-dx_ladder-{label}", ConfigError,
           lambda tmp, ladder=ladder: StudyConfig(benchmark="test1_eps", dx_ladder=ladder),
           match="^dx ladder ")
      for label, ladder in (("string-entry", ["0.1"]), ("number", 0.1), ("bool", [True]))],
    # mesh and probe input that raised bare errors or lost an imaginary part
    case("Mesh-ragged-simplices", BadParams,
         lambda tmp: Mesh(TRIANGLE, [[0, 1, 2], [0, 1]]), match="^simplices "),
    case("consistency_residual-hessian-complex", BadParams,
         probe_with(hessian=lambda x: np.array([[-math.sin(x[0]) + 1j]])),
         match="^phi hessian "),
    case("consistency_residual-hessian-2x2-in-1D", BadParams,
         probe_with(hessian=lambda x: -math.sin(x[0]) * np.eye(2)),
         match="^phi hessian of shape"),
    case("consistency_residual-value-string", BadParams, probe_with(value=lambda x: "a"),
         match="^phi value "),
    # a field of the wrong dimension and benchmark scalars
    case("RotatedNormalField-on-an-interval", BadParams,
         lambda tmp: RotatedNormalField(Interval(0.0, 1.0), 0.1), match="2D"),
    case("RotatedNormalField-angle-string", BadParams,
         lambda tmp: RotatedNormalField(Disk(), "0.1"), match="^angle "),
    *[case(f"get_benchmark-eps-{label}", BadParams,
           lambda tmp, eps=eps: get_benchmark("test1_eps", eps=eps), match="^eps ")
      for label, eps in (("nan", math.nan), ("inf", math.inf), ("string", "0.1"))],
    # policy pairs: out of range, negative, of floats, or folding into
    # another pair's code, on test3 with four controls a and one b
    *[case(f"{name}-policy-{label}", BadParams, call(pair), match="integer pair")
      for label, pair in (("ia-too-large", (4, 0)), ("ia-negative", (-1, 0)),
                          ("ib-too-large", (0, 1)), ("ib-negative", (1, -1)),
                          ("ia-float", (1.0, 0)), ("not-a-pair", (1, 0, 0)),
                          ("ia-one-element-array", (np.array([1]), 0)),
                          ("ib-list", (1, [0])))
      for name, call in (
          ("policy_cost-exact",
           lambda pair: lambda tmp: policy_cost(*exit_chain(), steer_to(pair), 0, 7,
                                                EXIT_PARAMS)),
          ("policy_cost-monte_carlo",
           lambda pair: lambda tmp: policy_cost(*exit_chain(), steer_to(pair), 0, 7,
                                                EXIT_PARAMS, mode="monte_carlo",
                                                n_paths=10)),
          ("estimate_sojourn",
           lambda pair: lambda tmp: estimate_sojourn(*exit_chain(), steer_to(pair),
                                                     EXIT_PARAMS, n_paths=10)))],
]


@pytest.mark.parametrize("error, match, call", CASES)
def test_misuse_raises_its_typed_error(error, match, call, tmp_path):
    with pytest.raises(error, match=match):
        call(tmp_path)
