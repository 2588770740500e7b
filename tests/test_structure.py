"""Source-structure guards: one implementation of each decision.

The per-step infected update ``(1 - K) * I + force`` appears exactly once
in each map kernel and nowhere else (in the in-place ensemble kernel
``core._step_into`` as its ``np.multiply(1 - K, I, out=...)``), and a
``hypot`` call (the normalisation of the tangent vector) exactly once, in
the tangent kernel.  A new hand-inlined copy of either fails here, also
one inside a kernel; route the new caller through ``core.step``,
``core._step_into``, ``core._advance`` or ``dynamics._tangent`` instead.
numpy functions are called with an ``out=`` buffer only in
``core._step_into`` and in ``positivity._holds``, the one membership
site, and the only other call with ``out=`` is the probe's reduction of
the membership table in ``positivity.invariance_probe``.  Likewise the
fixed-point residual lives only in ``equilibria._residual``, the one-step
derivative tensors are composed only by ``normal_forms.iterate_forms``,
the eigenvectors behind ``c`` and ``d`` come only from
``normal_forms._eigenpair`` (the one caller of ``_null_vector``).  The
per-point fixed-point and normal-form path is plain-float 2x2 algebra:
``np.linalg``, ``einsum``, ``np.eye`` and ``np.vdot`` appear only in
``normal_forms.iterate_forms`` (its k >= 2 chain rule), and in
``equilibria`` and ``normal_forms`` one 2x2 solve helper,
``normal_forms._solve2``, divides by a determinant (Cramer's rule).  The
sensitivity recurrence of the cycle-birth Newton solve (its
``fxx``/``fxr`` terms) only by ``dynamics._tangency_residual``, and
tolerances are module constants, not parameters of the public functions.
Every CLI flag is built by ``cli._add_option`` from a key of the option
table ``cli._OPTIONS``, at one call site; only ``--preset`` and
``--config`` are written out as literals.  Each subcommand takes its flags
from its own row of ``cli._SUBCOMMANDS``: no option list shared by all
subcommands (``_COMMON``) and no ``parents=`` parser, and ``cli`` calls no
private argparse method (``_add_action``); the one private argparse name it
touches is the ``_negative_number_matcher`` that ``cli._Parser`` sets.  The
strong-resonance tags ``RESONANCE_12/13/14`` are named only in the tables
``equilibria._NS_CURVE_TAGS`` and ``equilibria._RESONANCES``, the one
pairing of each resonance with its growth value, and ``normal_forms``
does not reach for ``thresholds`` to pair them again.  The 17-digit float
format spec is written once, in ``cli._fmt``, the one float-to-text site of
the CSV output.  Every ``crossings=`` value of a positivity region is a call
of ``positivity._crossings``, or a slice of one: the one solve of the
ceiling line meeting the nullcline.

The public API is pinned: ``sirmap.__all__`` holds exactly the names in
``PUBLIC_NAMES``, and ``Orbit`` has exactly the members ``states``,
``escaped_at`` and ``escaped``.  A new public name or member needs a
reader outside its own unit test (the CLI, a demo, the benchmark, the
README or an acceptance test); a reference that only a test reads lives
in ``tests/oracles.py``.  ``equilibria`` imports no numpy: its 2x2 work,
the period-2 Jacobian product included, is plain floats.
"""
import ast
import dataclasses
import inspect
from pathlib import Path

import sirmap

SOURCES = sorted(Path(sirmap.__file__).parent.glob("*.py"))
STEP_KERNELS = {"step", "_step_into", "_advance", "_tangent"}
TANGENT_KERNELS = {"_tangent"}


def _is_K(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "K") or (
        isinstance(node, ast.Attribute) and node.attr == "K"
    )


def _is_decay(node) -> bool:
    """``1 - K``, with K a name or an attribute."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Sub)
        and isinstance(node.left, ast.Constant)
        and node.left.value == 1
        and _is_K(node.right)
    )


def _is_infected_update(node) -> bool:
    """``(1 - K) * <x> + <y>``, or its in-place first half ``multiply(1 - K, <x>, ...)``."""
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name == "multiply" and bool(node.args) and _is_decay(node.args[0])
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
        return False
    prod = node.left
    return isinstance(prod, ast.BinOp) and isinstance(prod.op, ast.Mult) and _is_decay(prod.left)


def _is_hypot(node) -> bool:
    """Any reference to ``hypot``, called or stored under another name."""
    return (isinstance(node, ast.Attribute) and node.attr == "hypot") or (
        isinstance(node, ast.Name) and node.id == "hypot"
    )


def _is_hypot_call(node) -> bool:
    """A call of ``hypot``, ``math.hypot`` or ``np.hypot``: one vector normalisation."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Attribute) and func.attr == "hypot") or (
        isinstance(func, ast.Name) and func.id == "hypot"
    )


def _is_residual(node) -> bool:
    """``max(abs(<x>), abs(<y>))``: the sup-norm gap between a point and its image."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "max"
        and len(node.args) == 2
        and all(
            isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name) and arg.func.id == "abs"
            for arg in node.args
        )
    )


def _calls(name):
    """A predicate for calls of the bare name ``name``."""

    def predicate(node) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == name
        )

    return predicate


def _is_tangency_sensitivity(node) -> bool:
    """A use of the second derivatives ``fxx`` or ``fxr`` of the logistic step."""
    return isinstance(node, ast.Name) and node.id in ("fxx", "fxr")


def _occurrences(predicate):
    """(file, innermost enclosing function or None, line) of each match."""
    found = []

    def visit(node, func, path):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if predicate(node):
            found.append((path.name, func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func, path)

    for path in SOURCES:
        visit(ast.parse(path.read_text(encoding="utf-8")), None, path)
    return found


def test_sources_found():
    assert {"core.py", "dynamics.py", "positivity.py"} <= {p.name for p in SOURCES}


def test_infected_update_only_in_step_kernels():
    sites = _occurrences(_is_infected_update)
    assert sorted(func for _, func, _ in sites) == sorted(STEP_KERNELS), sites


def test_hypot_only_in_tangent_kernel():
    sites = _occurrences(_is_hypot)
    assert {func for _, func, _ in sites} == TANGENT_KERNELS, sites
    # exactly one call: a second normalised tangent column cannot come back
    calls = _occurrences(_is_hypot_call)
    assert [(path, func) for path, func, _ in calls] == [("dynamics.py", "_tangent")], calls


def _writes_out(numpy_function: bool):
    """Calls with an ``out=`` keyword, of ``np.<name>`` or of anything else."""

    def predicate(node) -> bool:
        if not (isinstance(node, ast.Call) and any(k.arg == "out" for k in node.keywords)):
            return False
        func = node.func
        is_np = (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "np"
        )
        return is_np == numpy_function

    return predicate


def test_out_buffers_only_in_ensemble_kernels():
    sites = _occurrences(_writes_out(numpy_function=True))
    assert {(path, func) for path, func, _ in sites} == {
        ("core.py", "_step_into"),
        ("positivity.py", "_holds"),
    }, sites
    # the probe reduces the membership table into its `inside` buffer, once
    others = _occurrences(_writes_out(numpy_function=False))
    assert [(path, func) for path, func, _ in others] == [
        ("positivity.py", "invariance_probe")
    ], others


def test_residual_only_in_equilibria_residual():
    sites = _occurrences(_is_residual)
    assert {(path, func) for path, func, _ in sites} == {("equilibria.py", "_residual")}, sites


def test_point_tensors_composed_only_by_iterate_forms():
    sites = _occurrences(_calls("_point_tensors"))
    assert {(path, func) for path, func, _ in sites} == {("normal_forms.py", "iterate_forms")}, sites


def test_null_vector_called_only_by_eigenpair():
    sites = _occurrences(_calls("_null_vector"))
    assert {(path, func) for path, func, _ in sites} == {("normal_forms.py", "_eigenpair")}, sites


ARRAY_ALGEBRA = {"linalg", "einsum", "eye", "vdot"}
FIXED_POINT_MODULES = {"equilibria.py", "normal_forms.py"}


def _is_array_algebra(node) -> bool:
    """A reference to ``np.linalg``, ``einsum``, ``np.eye`` or ``np.vdot``, however imported."""
    return (isinstance(node, ast.Attribute) and node.attr in ARRAY_ALGEBRA) or (
        isinstance(node, ast.Name) and node.id in ARRAY_ALGEBRA
    )


def _is_determinant(node) -> bool:
    """``<x>*<y> - <z>*<w>``: a 2x2 determinant."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Sub)
        and all(
            isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult)
            for side in (node.left, node.right)
        )
    )


def _solve_helpers(tree) -> set:
    """Functions that divide by a 2x2 determinant, directly or through a name bound to one."""
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        dets = {
            target.id
            for node in ast.walk(func)
            if isinstance(node, ast.Assign) and _is_determinant(node.value)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(func):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                den = node.right
                if _is_determinant(den) or (isinstance(den, ast.Name) and den.id in dets):
                    found.add(func.name)
    return found


def test_array_algebra_only_in_iterate_forms():
    sites = _occurrences(_is_array_algebra)
    assert {(path, func) for path, func, _ in sites} == {("normal_forms.py", "iterate_forms")}, sites


def test_one_two_by_two_solve_helper():
    helpers = {
        (path.name, name)
        for path in SOURCES
        if path.name in FIXED_POINT_MODULES
        for name in _solve_helpers(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert helpers == {("normal_forms.py", "_solve2")}, helpers
    # the guard sees the Cramer solve that the births Newton step keeps inline
    births = ast.parse((Path(sirmap.__file__).parent / "dynamics.py").read_text(encoding="utf-8"))
    assert _solve_helpers(births)


def test_tangency_recurrence_only_in_tangency_residual():
    sites = _occurrences(_is_tangency_sensitivity)
    assert {(path, func) for path, func, _ in sites} == {
        ("dynamics.py", "_tangency_residual")
    }, sites


def test_no_public_tolerance_parameters():
    knobs = [
        f"{name}({param})"
        for name in sirmap.__all__
        if inspect.isfunction(getattr(sirmap, name))
        for param in inspect.signature(getattr(sirmap, name)).parameters
        if param.endswith("tol")
    ]
    assert knobs == []


def test_cli_flags_come_from_option_table():
    tree = ast.parse((Path(sirmap.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    funcs = {f.name: f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)}
    literal, computed = [], []
    for name, func in funcs.items():
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"
            ):
                flag = node.args[0] if node.args else None
                if isinstance(flag, ast.Constant):
                    literal.append(flag.value)
                else:
                    computed.append((name, flag and ast.unparse(flag)))
    assert sorted(literal) == ["--config", "--preset"]
    # the one computed flag is --<key>, its type, choices and help read from the table
    assert computed == [("_add_option", "f'--{key}'")]
    assert "_OPTIONS[key]" in ast.unparse(funcs["_add_option"])
    # added to the subcommands only in build_parser, with no private argparse call
    calls = [
        (name, node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id)
        for name, func in funcs.items()
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    ]
    assert [c for c in calls if c[1] == "_add_option"] == [("build_parser", "_add_option")]
    assert [c for c in calls if c[1] == "_add_action"] == []
    # no option list shared by every subcommand, and no parent parser
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert "_COMMON" not in names
    assert not [k for k in ast.walk(tree) if isinstance(k, ast.keyword) and k.arg == "parents"]


def _private_attributes(tree) -> list:
    """(name, Load or Store) of each ``<x>._name`` in ``tree``, dunders aside."""
    return sorted(
        (node.attr, type(node.ctx).__name__)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
    )


def test_cli_touches_no_private_argparse_name():
    tree = ast.parse((Path(sirmap.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    # _asdict is the documented namedtuple method behind the regions escapes
    private = _private_attributes(tree)
    assert private == [("_asdict", "Load"), ("_negative_number_matcher", "Store")], private
    parser = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_Parser")
    assert _private_attributes(parser) == [("_negative_number_matcher", "Store")]


RESONANCE_TAGS = ("RESONANCE_12", "RESONANCE_13", "RESONANCE_14")
RESONANCE_TABLES = ("_NS_CURVE_TAGS", "_RESONANCES")


def _resonance_tag(node) -> str | None:
    """The tag a node reads: ``BoundaryTag.RESONANCE_1q`` or a bare loaded name."""
    if isinstance(node, ast.Attribute) and node.attr in RESONANCE_TAGS:
        return node.attr
    if isinstance(node, ast.Name) and node.id in RESONANCE_TAGS and isinstance(node.ctx, ast.Load):
        return node.id
    return None


def test_resonance_tags_only_in_the_ns_curve_tables():
    inside, everywhere = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        everywhere += [(path.name, tag) for n in ast.walk(tree) if (tag := _resonance_tag(n))]
        for node in tree.body:
            table = getattr(node.targets[0], "id", None) if isinstance(node, ast.Assign) else None
            if table in RESONANCE_TABLES:
                inside += [
                    (path.name, table, tag) for n in ast.walk(node.value) if (tag := _resonance_tag(n))
                ]
    assert sorted(inside) == [
        ("equilibria.py", table, tag) for table in RESONANCE_TABLES for tag in RESONANCE_TAGS
    ], inside
    assert len(everywhere) == len(inside), everywhere


def test_normal_forms_does_not_reference_thresholds():
    tree = ast.parse((Path(sirmap.__file__).parent / "normal_forms.py").read_text(encoding="utf-8"))
    refs = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "thresholds")
        or (isinstance(node, ast.Attribute) and node.attr == "thresholds")
        or (isinstance(node, ast.alias) and node.name == "thresholds")
    ]
    assert refs == [], refs


def _is_full_precision_spec(node) -> bool:
    """A string constant holding ``.17g``: an f-string spec, a ``format`` or ``%`` template."""
    return isinstance(node, ast.Constant) and isinstance(node.value, str) and ".17g" in node.value


def test_full_precision_format_only_in_cli_fmt():
    sites = _occurrences(_is_full_precision_spec)
    assert [(path, func) for path, func, _ in sites] == [("cli.py", "_fmt")], sites



def _is_crossings_keyword(node) -> bool:
    return isinstance(node, ast.keyword) and node.arg == "crossings"


def _is_crossings_from_the_solve(node) -> bool:
    """``crossings=_crossings(...)``, or a slice of that call."""
    if not _is_crossings_keyword(node):
        return False
    call = node.value.value if isinstance(node.value, ast.Subscript) else node.value
    return isinstance(call, ast.Call) and ast.unparse(call.func) == "_crossings"


def test_crossings_come_from_the_one_solve():
    sites = _occurrences(_is_crossings_keyword)
    # the regions of cases 2 and 3
    assert [(path, func) for path, func, _ in sites] == [("positivity.py", "applicable_region")] * 2
    assert _occurrences(_is_crossings_from_the_solve) == sites


PUBLIC_NAMES = [
    "BoundaryTag", "CycleBirth", "DEFAULT_MAX_PERIOD", "DEFAULT_TRANSIENT", "DEFAULT_WINDOW",
    "DIVERGENCE_BOUND", "DivergenceError", "EigenData", "EscapeRecord", "FixedPointReport",
    "ModelParams", "MultilinearForms", "NormalFormData", "Orbit", "ProbeReport",
    "RESONANCE_EXCLUSION", "RegionSpec", "ResonanceError", "ScanResult", "StabilityClass",
    "State", "TOL_BOUNDARY", "TOL_CYCLE", "TOL_HYP", "Thresholds", "__version__",
    "applicable_region", "beta0_threshold", "beta1_formula", "beta2_threshold",
    "classify_boundary", "detect_period", "disease_free", "endemic", "find_cycle_births",
    "flip_coefficient", "invariance_probe", "iterate", "iterate_forms", "jacobian", "lyapunov",
    "ns_coefficient", "period2_branch", "reproduction_candidates", "resonance_growth",
    "rho_prime_at_ns", "scan", "sharkovskii_precedes", "shifted_forms", "step", "thresholds",
    "u_star",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 52
    assert sorted(sirmap.__all__) == PUBLIC_NAMES


def test_orbit_members_are_pinned():
    members = {f.name for f in dataclasses.fields(sirmap.Orbit)}
    members |= {name for name in vars(sirmap.Orbit) if not name.startswith("_")}
    assert members == {"states", "escaped_at", "escaped"}
    # no sequence protocol: the samples are read through states
    assert not {"__len__", "__getitem__", "__iter__"} & set(vars(sirmap.Orbit))


def _imported_modules(tree) -> set:
    """The top-level package of every import in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_equilibria_imports_no_numpy():
    tree = ast.parse((Path(sirmap.__file__).parent / "equilibria.py").read_text(encoding="utf-8"))
    modules = _imported_modules(tree)
    assert "math" in modules
    assert "numpy" not in modules, modules
