"""Kernel program compilation: a join pipeline specialized for batch execution.

A :class:`KernelProgram` is the vectorized counterpart of a hash-join
pipeline / trie recursion: one *driver* relation whose rows seed the
frontier, plus an ordered list of probe steps.  Compilation decides, per
join variable, the shared key encoding (:mod:`repro.kernels.encoding`), and
per step whether matches must be *expanded* (gathered row-wise, because the
step's new variables feed later probes or the output) or merely *counted*
into the frontier's bag multiplicity.

A program is compiled for every serial run of a pipeline and once per
steal task context (the tasks of one query share it): compiling is a pass
over the atoms' schemas, tens of microseconds, and a program holds its
atoms, so keeping one past its query would keep its tables alive.  The
cost worth caching -- the sorted indexes the steps probe -- is cached by
table content in :mod:`repro.kernels.indexes`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.kernels.encoding import choose_kind


class KernelCompileError(Exception):
    """The pipeline cannot be compiled to a batch program (caller falls back)."""


@dataclass
class StepSpec:
    """One probe step of a compiled program."""

    atom: object
    #: Bound variables probed on, in the atom's column order (the same key
    #: order the row-at-a-time hash tables use).
    key_vars: Tuple[str, ...]
    #: Variables first bound by this step.
    new_vars: Tuple[str, ...]
    #: Whether matches are expanded row-wise (vs counted into multiplicity).
    expand: bool
    #: New variables whose key arrays later steps probe on.
    load_keys: Tuple[str, ...]


@dataclass
class KernelProgram:
    """A join pipeline compiled for batch-at-a-time execution."""

    driver: object
    steps: List[StepSpec]
    output_variables: Tuple[str, ...]
    #: Join-variable encoding kinds ("i" / "f" / "c").
    kinds: Dict[str, str]
    #: Driver grouping prefix for entry-range addressing (``None`` = the
    #: driver is addressed by plain row ranges).
    group_vars: Optional[Tuple[str, ...]]
    #: Driver variables whose key arrays some step probes on.
    driver_load_keys: Tuple[str, ...]
    #: Output variable -> frontier source (-1 = driver, else step index).
    out_source: Dict[str, int] = field(default_factory=dict)
    #: Step index -> its probe index (-1: the driver index), resolved from
    #: the index cache on first use and kept for the program's one query.
    indexes: Dict[int, object] = field(default_factory=dict)


def compile_program(
    driver,
    probes: Sequence,
    output_variables: Sequence[str],
    *,
    group_vars: Optional[Sequence[str]],
    compress: bool,
) -> KernelProgram:
    """Compile a batch program for one pipeline.

    Raises :class:`KernelCompileError` when the pipeline cannot be
    vectorized; callers fall back to the row-at-a-time path.
    """
    atoms = [driver] + list(probes)

    # Column set per variable, across every participating atom: the kind
    # must put all of them in one shared key space.
    columns: Dict[str, list] = {}
    for atom in atoms:
        for var in atom.variables:
            columns.setdefault(var, []).append(
                atom.table.column(atom.column_for(var))
            )
    unbound = [v for v in output_variables if v not in columns]
    if unbound:
        raise KernelCompileError(f"output variables {unbound} are never bound")
    kinds = {var: choose_kind(cols) for var, cols in columns.items()}

    # Forward pass: key/new split per step (bound set grows step by step).
    bound = set(driver.variables)
    key_vars_per_step: List[Tuple[str, ...]] = []
    new_vars_per_step: List[Tuple[str, ...]] = []
    for atom in probes:
        key_vars_per_step.append(tuple(v for v in atom.variables if v in bound))
        new_vars_per_step.append(tuple(v for v in atom.variables if v not in bound))
        bound.update(atom.variables)

    # Backward pass: a step expands when its new variables feed a later
    # probe or the output; otherwise its matches only multiply the bag.
    needed = set(output_variables)
    expand_flags: List[bool] = [False] * len(probes)
    for i in range(len(probes) - 1, -1, -1):
        expand_flags[i] = (not compress) or any(
            v in needed for v in new_vars_per_step[i]
        )
        needed.update(key_vars_per_step[i])

    # Key arrays to materialize into the frontier, per source.
    all_keys = set()
    for key_vars in key_vars_per_step:
        all_keys.update(key_vars)
    driver_load_keys = tuple(v for v in driver.variables if v in all_keys)
    steps: List[StepSpec] = []
    for atom, key_vars, new_vars, expand in zip(
        probes, key_vars_per_step, new_vars_per_step, expand_flags
    ):
        load_keys = tuple(v for v in new_vars if v in all_keys) if expand else ()
        steps.append(StepSpec(atom, key_vars, new_vars, expand, load_keys))

    # Output decode source: the *last* expanded binder of each variable —
    # the same representative the row-at-a-time binary pipeline reports
    # (bindings are overwritten by every atom that contains the variable).
    out_source: Dict[str, int] = {}
    for var in set(output_variables):
        source = -1 if var in driver.variables else None
        for i, step in enumerate(steps):
            if step.expand and var in step.atom.variables:
                source = i
        if source is None:
            # Bound only by compressed steps: impossible, because an output
            # variable is in `needed` from the start, forcing expansion.
            raise KernelCompileError(f"no expanded source for output {var!r}")
        out_source[var] = source

    return KernelProgram(
        driver=driver,
        steps=steps,
        output_variables=tuple(output_variables),
        kinds=kinds,
        group_vars=tuple(group_vars) if group_vars is not None else None,
        driver_load_keys=driver_load_keys,
        out_source=out_source,
    )
