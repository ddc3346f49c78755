"""Rule catalogue of **reprolint** — the project-invariant checkers.

Each checker encodes one of the repository's documented correctness
conventions as an AST pass.  The conventions exist because six refactors
(executor seam, cell store seam, delta-backed profiles, streaming dispatch)
made determinism and cache-key hygiene *conventions of the code*, not
properties the type system enforces; these rules make them machine-checked.

Rule codes are grouped by convention:

* ``REPRO1xx`` — RNG discipline: every stochastic component must derive its
  stream through :mod:`repro.core.rng`.
* ``REPRO2xx`` — frequency-oracle contract: the chunk dispatch lives on the
  base class *finally*; concrete oracles implement the dense kernels.
* ``REPRO3xx`` — cell-parameter completeness: any flag that changes row
  fidelity must be part of the :class:`GridCell` params, so caches never mix
  fidelities.
* ``REPRO4xx`` — seam hygiene: cell stores are built through
  ``CellStore.from_options``; serialized payloads feeding hashes must be
  canonical (``sort_keys=True``).
* ``REPRO5xx`` — general determinism/robustness hazards (mutable default
  arguments, silently swallowed broad exceptions).

A checker is a function ``check(ctx) -> Iterable[Violation]`` registered
with :func:`rule`; :mod:`repro.devtools.lint` drives the catalogue over a
file set and owns suppressions, baselines and the CLI.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

#: Flags that change row fidelity; every ``plan_*`` function accepting one
#: must thread it into its cells' params dict (REPRO301).
FIDELITY_KWARGS = ("amortize_nk", "chunk_size", "packed", "redraw_attributes")

#: Methods whose dispatch is final on :class:`FrequencyOracle` (REPRO201).
ORACLE_FINAL_METHODS = (
    "accumulator",
    "attack_many",
    "estimator_fingerprint",
    "support_counts",
)

#: Protected dense kernels every concrete oracle must implement (REPRO202).
ORACLE_REQUIRED_KERNELS = ("_attack_dense", "_support_counts_dense")

#: Classes that may only be constructed behind ``CellStore.from_options``
#: (outside their defining module and tests) — REPRO401.
STORE_CLASSES = ("SQLiteCellStore",)

#: Call targets whose arguments act as seeds (REPRO103 time-based seeding).
_SEEDING_CALLEES = (
    "default_rng",
    "derive_rng",
    "derive_seed_sequence",
    "ensure_rng",
    "seed",
    "SeedSequence",
    "spawn_rngs",
)


@dataclass(frozen=True)
class Violation:
    """One finding: where it is, which rule fired and why."""

    path: str
    line: int
    col: int
    rule: str
    name: str
    message: str
    #: Stripped source line the finding sits on — the baseline matches on
    #: this (plus path and rule), so entries survive unrelated line drift.
    content: str = ""


@dataclass
class FileContext:
    """Everything the checkers need to know about one parsed module."""

    display_path: str
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    is_tests: bool = False
    is_rng_module: bool = False
    # names bound to modules/objects of interest by this module's imports
    numpy: set[str] = field(default_factory=set)
    numpy_random: set[str] = field(default_factory=set)
    default_rng: set[str] = field(default_factory=set)
    stdlib_random: set[str] = field(default_factory=set)
    time_module: set[str] = field(default_factory=set)
    hashlib_module: set[str] = field(default_factory=set)
    json_module: set[str] = field(default_factory=set)
    json_dumps: set[str] = field(default_factory=set)
    #: classes defined in this module (defining modules are self-exempt)
    defined_classes: set[str] = field(default_factory=set)

    def line_content(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def violation(self, node: ast.AST, rule: "Rule", message: str) -> Violation:
        lineno = getattr(node, "lineno", 1)
        return Violation(
            path=self.display_path,
            line=lineno,
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule.code,
            name=rule.name,
            message=message,
            content=self.line_content(lineno),
        )


Checker = Callable[[FileContext], Iterable[Violation]]


@dataclass(frozen=True)
class Rule:
    """One registered rule: code, short name and the checker behind it."""

    code: str
    name: str
    check: Checker

    @property
    def description(self) -> str:
        return (self.check.__doc__ or "").strip().splitlines()[0]


RULES: list[Rule] = []


def rule(code: str, name: str) -> Callable[[Checker], Checker]:
    """Register a checker function under ``code`` in the rule catalogue."""

    def register(check: Checker) -> Checker:
        RULES.append(Rule(code=code, name=name, check=check))
        return check

    return register


def rule_catalogue() -> dict[str, str]:
    """``{code: one-line description}`` of every registered rule."""
    return {r.code: f"{r.name}: {r.description}" for r in RULES}


# --------------------------------------------------------------------------- #
# AST helpers
# --------------------------------------------------------------------------- #
def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, ``None`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def build_context(display_path: str, source: str, tree: ast.Module) -> FileContext:
    """Parse imports and path roles into a :class:`FileContext`."""
    normalized = display_path.replace("\\", "/")
    parts = normalized.split("/")
    ctx = FileContext(
        display_path=normalized,
        source=source,
        tree=tree,
        lines=source.splitlines(),
        is_tests=(
            "tests" in parts
            or parts[-1].startswith("test_")
            or parts[-1] == "conftest.py"
        ),
        is_rng_module=normalized.endswith("repro/core/rng.py"),
    )
    targets = {
        "numpy": ctx.numpy,
        "numpy.random": ctx.numpy_random,
        "numpy.random.default_rng": ctx.default_rng,
        "random": ctx.stdlib_random,
        "time": ctx.time_module,
        "hashlib": ctx.hashlib_module,
        "json": ctx.json_module,
        "json.dumps": ctx.json_dumps,
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bucket = targets.get(alias.name)
                if bucket is not None:
                    bucket.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                bucket = targets.get(f"{node.module}.{alias.name}")
                if bucket is not None:
                    bucket.add(alias.asname or alias.name)
        elif isinstance(node, ast.ClassDef):
            ctx.defined_classes.add(node.name)
    return ctx


def _calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


def _is_numpy_seed_call(ctx: FileContext, call: ast.Call) -> bool:
    name = dotted_name(call.func)
    if name is None:
        return False
    return any(name == f"{alias}.random.seed" for alias in ctx.numpy) or any(
        name == f"{alias}.seed" for alias in ctx.numpy_random
    )


def _is_default_rng_call(ctx: FileContext, call: ast.Call) -> bool:
    name = dotted_name(call.func)
    if name is None:
        return False
    return (
        name in ctx.default_rng
        or any(name == f"{alias}.random.default_rng" for alias in ctx.numpy)
        or any(name == f"{alias}.default_rng" for alias in ctx.numpy_random)
    )


# --------------------------------------------------------------------------- #
# REPRO1xx — RNG discipline
# --------------------------------------------------------------------------- #
@rule("REPRO101", "numpy-global-seed")
def check_numpy_global_seed(ctx: FileContext) -> Iterator[Violation]:
    """``np.random.seed`` mutates process-global legacy RNG state.

    Grid cells derive independent streams from the master seed alone
    (:func:`repro.core.rng.derive_rng`); global seeding makes results depend
    on scheduling order and silently couples unrelated components.  Applies
    everywhere, tests included.
    """
    this = _rule("REPRO101")
    for call in _calls(ctx.tree):
        if _is_numpy_seed_call(ctx, call):
            yield ctx.violation(
                call,
                this,
                "np.random.seed() sets process-global RNG state; thread a "
                "generator from repro.core.rng (ensure_rng/derive_rng) instead",
            )


@rule("REPRO102", "naked-default-rng")
def check_naked_default_rng(ctx: FileContext) -> Iterator[Violation]:
    """Argument-less ``np.random.default_rng()`` draws OS entropy.

    A fresh nondeterministic generator anywhere in the library breaks the
    bit-identical-for-any-executor guarantee.  The one blessed construction
    site is :func:`repro.core.rng.ensure_rng` (``rng=None`` explicitly asks
    for nondeterminism); everything else must accept an ``RngLike`` and
    normalize it there.  Tests are exempt.
    """
    if ctx.is_rng_module or ctx.is_tests:
        return
    this = _rule("REPRO102")
    for call in _calls(ctx.tree):
        if _is_default_rng_call(ctx, call) and not call.args and not call.keywords:
            yield ctx.violation(
                call,
                this,
                "argument-less np.random.default_rng() is nondeterministic; "
                "accept an RngLike and use repro.core.rng.ensure_rng/derive_rng",
            )


@rule("REPRO103", "nondeterministic-seed")
def check_nondeterministic_seed(ctx: FileContext) -> Iterator[Violation]:
    """Seeding from the stdlib ``random`` module or wall-clock time.

    ``random``'s global Mersenne Twister and ``time.time()``-derived seeds
    are invisible to the grid's SeedSequence derivation; both reintroduce
    run-to-run nondeterminism.  Only :mod:`repro.core.rng` and tests may
    touch them.
    """
    if ctx.is_rng_module or ctx.is_tests:
        return
    this = _rule("REPRO103")
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "random" for alias in node.names):
                yield ctx.violation(
                    node,
                    this,
                    "the stdlib random module bypasses repro.core.rng; use a "
                    "numpy Generator threaded from the caller",
                )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random" and node.level == 0:
                yield ctx.violation(
                    node,
                    this,
                    "importing from the stdlib random module bypasses "
                    "repro.core.rng; use a numpy Generator threaded from the caller",
                )
        elif isinstance(node, ast.Call):
            callee = dotted_name(node.func)
            if callee is None or callee.split(".")[-1] not in _SEEDING_CALLEES:
                continue
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                for inner in _calls(arg):
                    inner_name = dotted_name(inner.func)
                    if inner_name is not None and any(
                        inner_name in (f"{alias}.time", f"{alias}.time_ns")
                        for alias in ctx.time_module
                    ):
                        yield ctx.violation(
                            inner,
                            this,
                            "wall-clock time as a seed is nondeterministic; "
                            "derive the stream with repro.core.rng.derive_rng",
                        )


# --------------------------------------------------------------------------- #
# REPRO2xx — frequency-oracle contract
# --------------------------------------------------------------------------- #
def _oracle_subclasses(ctx: FileContext) -> Iterator[ast.ClassDef]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for base in node.bases:
            name = dotted_name(base)
            if name is not None and name.split(".")[-1] == "FrequencyOracle":
                yield node
                break


def _method_names(cls: ast.ClassDef) -> dict[str, ast.AST]:
    return {
        stmt.name: stmt
        for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _is_abstract(cls: ast.ClassDef) -> bool:
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in stmt.decorator_list:
                name = dotted_name(decorator)
                if name is not None and name.split(".")[-1] in (
                    "abstractmethod",
                    "abstractproperty",
                ):
                    return True
    return False


@rule("REPRO201", "oracle-final-override")
def check_oracle_final_override(ctx: FileContext) -> Iterator[Violation]:
    """A ``FrequencyOracle`` subclass overrides a final dispatch method.

    ``support_counts``/``attack_many``/``accumulator`` own the chunk-iterable
    guard on the base class; re-implementing them in a subclass can silently
    drop streaming support (and diverge from the ``@final`` annotations mypy
    enforces).  Implement the protected dense kernels instead.
    """
    if "FrequencyOracle" in ctx.defined_classes:
        return  # the defining module owns the final methods
    this = _rule("REPRO201")
    for cls in _oracle_subclasses(ctx):
        methods = _method_names(cls)
        for name in ORACLE_FINAL_METHODS:
            if name in methods:
                yield ctx.violation(
                    methods[name],
                    this,
                    f"{cls.name} overrides final FrequencyOracle.{name}(); "
                    f"implement the protected dense kernel instead "
                    f"({'/'.join(ORACLE_REQUIRED_KERNELS)})",
                )


@rule("REPRO202", "oracle-missing-kernel")
def check_oracle_missing_kernel(ctx: FileContext) -> Iterator[Violation]:
    """A concrete ``FrequencyOracle`` subclass skips a dense kernel.

    Concrete oracles implement ``_support_counts_dense`` and
    ``_attack_dense`` so the final base-class dispatch (chunk guard, packed
    reports) applies uniformly; relying on the O(n)-python ``attack`` loop
    fallback is a silent performance and contract hazard.  Abstract
    intermediate classes and test stubs are exempt.
    """
    if "FrequencyOracle" in ctx.defined_classes or ctx.is_tests:
        return
    this = _rule("REPRO202")
    for cls in _oracle_subclasses(ctx):
        if _is_abstract(cls):
            continue
        methods = _method_names(cls)
        for kernel in ORACLE_REQUIRED_KERNELS:
            if kernel not in methods:
                yield ctx.violation(
                    cls,
                    this,
                    f"{cls.name} does not implement {kernel}(); concrete "
                    "oracles must provide both protected dense kernels",
                )


# --------------------------------------------------------------------------- #
# REPRO3xx — cell-parameter completeness
# --------------------------------------------------------------------------- #
@rule("REPRO301", "missing-fidelity-param")
def check_missing_fidelity_param(ctx: FileContext) -> Iterator[Violation]:
    """A ``plan_*`` function drops a fidelity kwarg from its cell params.

    Flags that change row fidelity (``amortize_nk``, ``chunk_size``,
    ``packed``, ``redraw_attributes``) must be part of every planned cell's
    params dict — the cache key is a content hash of those params, so a
    dropped flag makes two different fidelities share one cache entry.
    The kwarg must appear as a params-dict key (literal or
    ``params["..."] = ...`` assignment) somewhere in the plan function.
    """
    this = _rule("REPRO301")
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not node.name.startswith("plan_"):
            continue
        args = node.args
        accepted = {
            a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        }
        threaded = accepted.intersection(FIDELITY_KWARGS)
        if not threaded:
            continue
        keys: set[str] = set()
        for inner in ast.walk(node):
            if isinstance(inner, ast.Dict):
                for key in inner.keys:
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        keys.add(key.value)
            elif isinstance(inner, ast.Assign):
                for target in inner.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.slice, ast.Constant)
                        and isinstance(target.slice.value, str)
                    ):
                        keys.add(target.slice.value)
        for kwarg in sorted(threaded - keys):
            yield ctx.violation(
                node,
                this,
                f"{node.name}() accepts fidelity kwarg {kwarg!r} but never "
                "puts it in the GridCell params dict; caches would mix "
                "fidelities under one config hash",
            )


# --------------------------------------------------------------------------- #
# REPRO4xx — seam hygiene
# --------------------------------------------------------------------------- #
@rule("REPRO401", "direct-store-construction")
def check_direct_store_construction(ctx: FileContext) -> Iterator[Violation]:
    """A cell store is constructed outside ``CellStore.from_options``.

    ``CellStore.from_options`` is the one place the ``(directory, bounds)``
    wiring lives; direct ``SQLiteCellStore(...)`` construction elsewhere
    lets parent and worker caches silently diverge.  The defining module and
    tests are exempt; blessed factory classmethods (``from_options``,
    ``for_directory``) are not flagged.
    """
    if ctx.is_tests:
        return
    this = _rule("REPRO401")
    for call in _calls(ctx.tree):
        name = dotted_name(call.func)
        if name is None:
            continue
        leaf = name.split(".")[-1]
        if leaf in STORE_CLASSES and leaf not in ctx.defined_classes:
            yield ctx.violation(
                call,
                this,
                f"direct {leaf}(...) construction bypasses "
                "CellStore.from_options; build stores through the seam so "
                "the bounds wiring cannot diverge",
            )


@rule("REPRO402", "noncanonical-json-in-hash-path")
def check_noncanonical_json_in_hash_path(ctx: FileContext) -> Iterator[Violation]:
    """``json.dumps`` without ``sort_keys=True`` feeding a hash.

    Content hashes (cell config hashes, plan fingerprints) must be computed
    over *canonical* JSON — dict iteration order is an implementation detail,
    and an unsorted dump makes equal configurations hash differently across
    processes.  Any ``json.dumps`` inside a function that also uses
    ``hashlib`` must pass ``sort_keys=True``.
    """
    this = _rule("REPRO402")

    def is_dumps(call: ast.Call) -> bool:
        name = dotted_name(call.func)
        if name is None:
            return False
        return name in ctx.json_dumps or any(
            name == f"{alias}.dumps" for alias in ctx.json_module
        )

    def has_sorted_keys(call: ast.Call) -> bool:
        for kw in call.keywords:
            if kw.arg == "sort_keys":
                return isinstance(kw.value, ast.Constant) and kw.value.value is True
        return False

    def uses_hashlib(tree: ast.AST) -> bool:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id in ctx.hashlib_module:
                return True
        return False

    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not uses_hashlib(node):
            continue
        for call in _calls(node):
            if is_dumps(call) and not has_sorted_keys(call):
                yield ctx.violation(
                    call,
                    this,
                    "json.dumps in a hashing path must pass sort_keys=True "
                    "(canonical form), or equal configs hash differently",
                )


# --------------------------------------------------------------------------- #
# REPRO5xx — general determinism hazards
# --------------------------------------------------------------------------- #
@rule("REPRO501", "mutable-default-argument")
def check_mutable_default_argument(ctx: FileContext) -> Iterator[Violation]:
    """A function default is a mutable container.

    ``def f(x=[])`` shares one list across every call — state leaks between
    grid cells and repetitions, the exact class of bug the per-cell RNG
    derivation exists to prevent.  Use ``None`` plus an in-body default.
    """
    this = _rule("REPRO501")
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set", "bytearray")
            )
            if mutable:
                yield ctx.violation(
                    default,
                    this,
                    "mutable default argument is shared across calls; "
                    "default to None and build the container in the body",
                )


@rule("REPRO502", "silent-exception-swallow")
def check_silent_exception_swallow(ctx: FileContext) -> Iterator[Violation]:
    """A broad exception handler silently swallows everything it catches.

    ``except Exception: pass`` (and the even broader bare ``except:``) is
    exactly what masks lost completions in a network executor — a failed
    heartbeat, a dropped row report, a torn cache write all vanish without a
    trace.  The project's documented degrade seams narrow the caught type
    (``except OSError``) or act on the failure (warn once, re-raise,
    requeue); a handler that catches ``Exception``/``BaseException`` and does
    *nothing* is flagged everywhere, tests included.  A genuinely intentional
    seam carries a ``# reprolint: disable=REPRO502`` comment explaining
    itself.
    """
    this = _rule("REPRO502")

    def is_broad(handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True  # bare except:
        types = (
            handler.type.elts
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        for node in types:
            name = dotted_name(node)
            if name is not None and name.split(".")[-1] in (
                "Exception",
                "BaseException",
            ):
                return True
        return False

    def is_silent(handler: ast.ExceptHandler) -> bool:
        for stmt in handler.body:
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue  # docstring or bare `...`
            return False
        return True

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not is_broad(node):
            continue
        if node.type is None:
            yield ctx.violation(
                node,
                this,
                "bare except: swallows SystemExit/KeyboardInterrupt too; "
                "catch the narrow exception type the seam degrades on",
            )
        elif is_silent(node):
            yield ctx.violation(
                node,
                this,
                "except Exception: pass silently discards the failure; "
                "narrow the type or handle it (warn/requeue/re-raise)",
            )


# --------------------------------------------------------------------------- #
# REPRO6xx — kernel-backend discipline
# --------------------------------------------------------------------------- #
#: Backend modules of ``repro.kernels`` that only the registry may import.
_KERNEL_BACKEND_MODULES = ("numpy_backend", "numba_backend")


def _names_kernel_backend_module(module_path: str) -> bool:
    """True when a dotted module path denotes a kernel backend module."""
    parts = module_path.split(".")
    if parts[-1] not in _KERNEL_BACKEND_MODULES:
        return False
    # absolute (repro.kernels.numpy_backend), relative through the package
    # (..kernels.numpy_backend -> "kernels.numpy_backend") or a bare sibling
    # import ("numpy_backend", only reachable from inside the package)
    return len(parts) == 1 or "kernels" in parts


@rule("REPRO601", "direct-kernel-backend-import")
def check_direct_kernel_backend_import(ctx: FileContext) -> Iterator[Violation]:
    """A module imports a repro.kernels backend instead of get_backend().

    The hot kernels are selected once per process (``--kernel-backend`` /
    ``REPRO_KERNEL_BACKEND``) and the chosen backend is recorded in artifact
    metadata; a module that imports ``repro.kernels.numpy_backend`` or
    ``numba_backend`` directly pins itself to one implementation behind the
    registry's back, so the recorded backend no longer describes the kernels
    that actually ran.  Production code must dispatch through
    ``repro.kernels.get_backend()``; only the registry package itself (and
    tests/benchmarks, which compare backends on purpose) may name a backend
    module.
    """
    this = _rule("REPRO601")
    if ctx.is_tests or "repro/kernels/" in ctx.display_path:
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _names_kernel_backend_module(alias.name):
                    yield ctx.violation(
                        node,
                        this,
                        f"import {alias.name} pins one kernel backend; "
                        "dispatch through repro.kernels.get_backend()",
                    )
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if _names_kernel_backend_module(module):
                yield ctx.violation(
                    node,
                    this,
                    f"from {'.' * node.level}{module} import ... reaches "
                    "into a kernel backend module; dispatch through "
                    "repro.kernels.get_backend()",
                )
                continue
            if module.split(".")[-1] == "kernels":
                for alias in node.names:
                    if alias.name in _KERNEL_BACKEND_MODULES:
                        yield ctx.violation(
                            node,
                            this,
                            f"from {'.' * node.level}{module} import "
                            f"{alias.name} pins one kernel backend; "
                            "dispatch through repro.kernels.get_backend()",
                        )


def _rule(code: str) -> Rule:
    """Look up a registered rule by code (used by the checkers themselves)."""
    for registered in RULES:
        if registered.code == code:
            return registered
    raise KeyError(code)
