"""Builtin operator table binding MIL names to kernel functions.

Each builtin is registered under its MIL name and may be invoked both
function-style (``join(a, b)``) and method-style (``a.join(b)``); the
receiver becomes the first argument, exactly like MIL.

Two layers live here:

* the *plain* table (:func:`plain_builtin`) binding names to the
  monolithic :mod:`repro.monet.kernel` operators, and
* a *dispatch* layer (:func:`invoke_builtin` / :func:`invoke_pump`)
  that routes a call to the fragment-parallel implementation in
  :mod:`repro.monet.fragments` whenever the receiver is a
  :class:`~repro.monet.fragments.FragmentedBAT`, re-fragmenting the
  intermediate result under the active
  :class:`~repro.monet.fragments.FragmentationPolicy`.  The
  order-sensitive operators (``sort``/``tsort``,
  ``unique``/``kunique``/``tunique``, ``refine``) run fragment-parallel
  too (sample-sort / candidate-merge based), as do the set operators
  (``kunion``/``kintersect``, via a shared head-membership build), so a
  pipeline containing them still coalesces only at result return.  The
  few operators with no fragment-parallel counterpart
  (``group_sizes``, ``group_representatives``, ...) transparently
  coalesce their fragmented arguments first, so every MIL program stays
  valid over fragmented BATs.

Arity is enforced uniformly: every builtin carries a signature entry,
and a wrong argument count raises :class:`MILRuntimeError` naming the
expected signature and the received count (method-style misuse like
``x.join()`` included -- it never surfaces as a bare ``TypeError``).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Optional, Tuple

from repro.monet import aggregates, fragments, groups, kernel
from repro.monet.bat import BAT, bat_from_pairs, empty_bat
from repro.monet.errors import MILRuntimeError
from repro.monet.fragments import FragmentationPolicy, FragmentedBAT


def _require_bat(value, op: str) -> BAT:
    if not isinstance(value, BAT):
        raise MILRuntimeError(f"{op} expects a BAT, got {type(value).__name__}")
    return value


#: name -> (min args, max args, human signature) with the method-style
#: receiver counted as the first argument.  ``None`` max means
#: unbounded.
_SIGNATURES: Dict[str, Tuple[int, Optional[int], str]] = {
    "select": (2, 3, "select(bat, value) or select(bat, low, high)"),
    "uselect": (2, 3, "uselect(bat, value) or uselect(bat, low, high)"),
    "likeselect": (2, 2, "likeselect(bat, pattern)"),
    "join": (2, 2, "join(left, right)"),
    "leftjoin": (2, 2, "leftjoin(left, right)"),
    "fetchjoin": (2, 2, "fetchjoin(left, right)"),
    "outerjoin": (2, 2, "outerjoin(left, right)"),
    "semijoin": (2, 2, "semijoin(left, right)"),
    "kdiff": (2, 2, "kdiff(left, right)"),
    "kunion": (2, 2, "kunion(left, right)"),
    "kintersect": (2, 2, "kintersect(left, right)"),
    "reverse": (1, 1, "reverse(bat)"),
    "mirror": (1, 1, "mirror(bat)"),
    "mark": (1, 2, "mark(bat[, base])"),
    "number": (1, 2, "number(bat[, base])"),
    "sort": (1, 1, "sort(bat)"),
    "tsort": (1, 1, "tsort(bat)"),
    "unique": (1, 1, "unique(bat)"),
    "kunique": (1, 1, "kunique(bat)"),
    "tunique": (1, 1, "tunique(bat)"),
    "slice": (3, 3, "slice(bat, start, stop)"),
    "topn": (2, 3, "topn(bat, n[, descending])"),
    "group": (1, 1, "group(bat)"),
    "refine": (2, 2, "refine(grouping, bat)"),
    "group_sizes": (1, 1, "group_sizes(grouping)"),
    "group_representatives": (2, 2, "group_representatives(grouping, bat)"),
    "count": (1, 1, "count(bat)"),
    "sum": (1, 1, "sum(bat)"),
    "max": (1, 1, "max(bat)"),
    "min": (1, 1, "min(bat)"),
    "avg": (1, 1, "avg(bat)"),
    "exist": (2, 2, "exist(bat, head_value)"),
    "find": (2, 2, "find(bat, head_value)"),
    "const": (3, 3, "const(bat, atom_name, value)"),
    "new": (2, 2, "new(head_type, tail_type)"),
    "insert": (3, 3, "insert(bat, head, tail)"),
    "oid": (1, 1, "oid(value)"),
    "int": (1, 1, "int(value)"),
    "dbl": (1, 1, "dbl(value)"),
    "str": (1, 1, "str(value)"),
    "bit": (1, 1, "bit(value)"),
    "neg": (1, 1, "neg(value)"),
    "isnil": (1, 1, "isnil(value)"),
    "log": (1, 1, "log(value)"),
    "exp": (1, 1, "exp(value)"),
    "sqrt": (1, 1, "sqrt(value)"),
}


def arity_error(name: str, got: int) -> MILRuntimeError:
    """The uniform wrong-argument-count error for builtin *name*."""
    _, _, signature = _SIGNATURES.get(name, (None, None, name))
    plural = "" if got == 1 else "s"
    return MILRuntimeError(f"{name} takes {signature}, got {got} argument{plural}")


def check_arity(name: str, got: int) -> None:
    entry = _SIGNATURES.get(name)
    if entry is None:
        return
    low, high, _ = entry
    if got < low or (high is not None and got > high):
        raise arity_error(name, got)


def _select(bat, *args):
    _require_bat(bat, "select")
    if len(args) == 1:
        return kernel.select(bat, args[0])
    if len(args) == 2:
        return kernel.select(bat, args[0], args[1])
    raise arity_error("select", len(args) + 1)


def _uselect(bat, *args):
    _require_bat(bat, "uselect")
    if len(args) == 1:
        return kernel.uselect(bat, args[0])
    if len(args) == 2:
        return kernel.uselect(bat, args[0], args[1])
    raise arity_error("uselect", len(args) + 1)


def _slice(bat, start, stop):
    _require_bat(bat, "slice")
    return kernel.slice_bat(bat, int(start), int(stop))


def _mark(bat, base=0):
    _require_bat(bat, "mark")
    return kernel.mark(bat, int(base))


def _number(bat, base=0):
    _require_bat(bat, "number")
    return kernel.number(bat, int(base))


def _topn(bat, n, descending=True):
    _require_bat(bat, "topn")
    return kernel.topn(bat, int(n), descending=bool(descending))


def _const(bat, atom_name, value):
    _require_bat(bat, "const")
    return kernel.const_bat(bat, str(atom_name), value)


def _new(head_type, tail_type):
    return empty_bat(str(head_type), str(tail_type))


def _insert(bat, head, tail):
    """Functional single-BUN insert: returns a new BAT with the pair
    appended (MIL's ``insert`` mutates; our BATs are immutable, and the
    Moa compiler never relies on aliasing)."""
    _require_bat(bat, "insert")
    pairs = bat.to_pairs()
    pairs.append((head, tail))
    return bat_from_pairs(bat.htype, bat.ttype, pairs)


_PLAIN: Dict[str, Callable[..., Any]] = {
    "select": _select,
    "uselect": _uselect,
    "likeselect": lambda b, p: kernel.likeselect(_require_bat(b, "likeselect"), str(p)),
    "join": lambda a, b: kernel.join(_require_bat(a, "join"), _require_bat(b, "join")),
    "leftjoin": lambda a, b: kernel.join(
        _require_bat(a, "leftjoin"), _require_bat(b, "leftjoin")
    ),
    "fetchjoin": lambda a, b: kernel.fetchjoin(
        _require_bat(a, "fetchjoin"), _require_bat(b, "fetchjoin")
    ),
    "outerjoin": lambda a, b: kernel.outerjoin(
        _require_bat(a, "outerjoin"), _require_bat(b, "outerjoin")
    ),
    "semijoin": lambda a, b: kernel.semijoin(
        _require_bat(a, "semijoin"), _require_bat(b, "semijoin")
    ),
    "kdiff": lambda a, b: kernel.kdiff(_require_bat(a, "kdiff"), _require_bat(b, "kdiff")),
    "kunion": lambda a, b: kernel.kunion(
        _require_bat(a, "kunion"), _require_bat(b, "kunion")
    ),
    "kintersect": lambda a, b: kernel.kintersect(
        _require_bat(a, "kintersect"), _require_bat(b, "kintersect")
    ),
    "reverse": lambda b: _require_bat(b, "reverse").reverse(),
    "mirror": lambda b: _require_bat(b, "mirror").mirror(),
    "mark": _mark,
    "number": _number,
    "sort": lambda b: kernel.sort(_require_bat(b, "sort")),
    "tsort": lambda b: kernel.tsort(_require_bat(b, "tsort")),
    "unique": lambda b: kernel.unique(_require_bat(b, "unique")),
    "kunique": lambda b: kernel.kunique(_require_bat(b, "kunique")),
    "tunique": lambda b: kernel.tunique(_require_bat(b, "tunique")),
    "slice": _slice,
    "topn": _topn,
    "group": lambda b: groups.group(_require_bat(b, "group")),
    "refine": lambda g, b: groups.refine(
        _require_bat(g, "refine"), _require_bat(b, "refine")
    ),
    "group_sizes": lambda g: groups.group_sizes(_require_bat(g, "group_sizes")),
    "group_representatives": lambda g, b: groups.group_representatives(
        _require_bat(g, "group_representatives"), _require_bat(b, "group_representatives")
    ),
    "count": lambda b: aggregates.count(_require_bat(b, "count")),
    "sum": lambda b: aggregates.sum_(_require_bat(b, "sum")),
    "max": lambda b: aggregates.max_(_require_bat(b, "max")),
    "min": lambda b: aggregates.min_(_require_bat(b, "min")),
    "avg": lambda b: aggregates.avg(_require_bat(b, "avg")),
    "exist": lambda b, v: kernel.exist(_require_bat(b, "exist"), v),
    "find": lambda b, v: _require_bat(b, "find").find(v),
    "const": _const,
    "new": _new,
    "insert": _insert,
    # scalar casts -- MIL writes oid(0), dbl(x), ...
    "oid": lambda v: int(v),
    "int": lambda v: int(v),
    "dbl": lambda v: float(v),
    "str": lambda v: str(v),
    "bit": lambda v: bool(v),
    "neg": lambda v: -v,
    "isnil": lambda v: v is None,
    # scalar math (BAT-wide versions are the multiplexed [log] etc.)
    "log": math.log,
    "exp": math.exp,
    "sqrt": math.sqrt,
}

#: Fragment-parallel counterparts, keyed like _PLAIN.  An entry is used
#: when the *receiver* (first argument) is a FragmentedBAT; missing
#: entries coalesce instead.  Every implementation accepts monolithic
#: or fragmented right-hand operands.
_FRAGMENT: Dict[str, Callable[..., Any]] = {
    "select": fragments.select,
    "uselect": fragments.uselect,
    "likeselect": lambda b, p: fragments.likeselect(b, str(p)),
    "join": fragments.join,
    "leftjoin": fragments.join,
    "fetchjoin": fragments.fetchjoin,
    "outerjoin": fragments.outerjoin,
    "semijoin": fragments.semijoin,
    "kdiff": fragments.antijoin,
    "kunion": fragments.kunion,
    "kintersect": fragments.kintersect,
    "reverse": fragments.reverse,
    "mirror": fragments.mirror,
    "mark": lambda b, base=0: fragments.mark(b, int(base)),
    "number": lambda b, base=0: fragments.number(b, int(base)),
    "sort": fragments.sort,
    "tsort": fragments.tsort,
    "unique": fragments.unique,
    "kunique": fragments.kunique,
    "tunique": fragments.tunique,
    "refine": fragments.refine,
    "slice": lambda b, start, stop: fragments.slice_(b, int(start), int(stop)),
    "topn": lambda b, n, descending=True: fragments.topn(
        b, int(n), descending=bool(descending)
    ),
    "const": fragments.const,
    "group": fragments.group,
    # Functional insert on a fragmented receiver goes through the
    # copy-on-write delta tail: the committed prefix fragments are
    # shared, only the tail is rebuilt -- no coalesce, O(tail) not
    # O(total).  (The monolithic _insert rebuilds from to_pairs().)
    "insert": lambda fb, head, tail: fb.append([(head, tail)]),
    "count": fragments.count,
    "sum": fragments.sum_,
    "max": fragments.max_,
    "min": fragments.min_,
    "avg": fragments.avg,
}

_PUMPS: Dict[str, Callable[..., BAT]] = {
    "sum": aggregates.grouped_sum,
    "count": aggregates.grouped_count,
    "max": aggregates.grouped_max,
    "min": aggregates.grouped_min,
    "avg": aggregates.grouped_avg,
    "prod": aggregates.grouped_prod,
}

_FRAGMENT_PUMPS: Dict[str, Callable[..., BAT]] = {
    "sum": fragments.grouped_sum,
    "count": fragments.grouped_count,
    "max": fragments.grouped_max,
    "min": fragments.grouped_min,
    "avg": fragments.grouped_avg,
}


def plain_builtin(name: str) -> Callable[..., Any]:
    """Monolithic kernel function for MIL name *name*; raises
    MILRuntimeError if unknown."""
    try:
        return _PLAIN[name]
    except KeyError:
        raise MILRuntimeError(f"unknown MIL operation {name!r}") from None


def has_builtin(name: str) -> bool:
    return name in _PLAIN


#: Builtins whose fragment-parallel implementations consume a
#: fragmented *right* operand without coalescing (the grace-join
#: family).  A monolithic receiver is fragmented on the fly for these,
#: so ``join(mono, frag)`` no longer coalesces the fragmented side.
_FRAGMENT_ANY_OPERAND = frozenset(
    {"join", "leftjoin", "fetchjoin", "outerjoin", "semijoin", "kdiff"}
)


def invoke_builtin(
    name: str, args: list, policy: Optional[FragmentationPolicy] = None
) -> Any:
    """Arity-checked builtin call with fragment-aware dispatch.

    When the receiver is fragmented and a fragment-parallel
    implementation exists, it runs fragment-parallel and the result is
    re-fragmented under *policy* if it drifted; the join family also
    accepts a monolithic receiver against a fragmented right operand
    (the receiver fragments on the fly, the right side stays
    fragmented).  Otherwise fragmented arguments coalesce (cached, at
    most once per BAT) and the monolithic implementation runs."""
    impl = plain_builtin(name)
    check_arity(name, len(args))
    if any(isinstance(a, FragmentedBAT) for a in args):
        fragmented = _FRAGMENT.get(name)
        if (
            fragmented is not None
            and name in _FRAGMENT_ANY_OPERAND
            and isinstance(args[0], BAT)
        ):
            args = [
                fragments.fragment_bat(args[0], policy or FragmentationPolicy()),
                *args[1:],
            ]
        if fragmented is not None and isinstance(args[0], FragmentedBAT):
            result = fragmented(*args)
            if isinstance(result, FragmentedBAT):
                result = fragments.refragment(result, policy)
            return result
        args = [fragments.coalesce(a) for a in args]
    return impl(*args)


def pump_builtin(agg: str) -> Callable[..., BAT]:
    """Monolithic pump aggregate implementation for ``{agg}``."""
    try:
        return _PUMPS[agg]
    except KeyError:
        raise MILRuntimeError(f"unknown pump aggregate {{{agg}}}") from None


def invoke_pump(
    agg: str, values: Any, grouping: Any, n_groups: Optional[int] = None
) -> BAT:
    """Pump aggregate with fragment-aware dispatch: identically
    fragmented (values, grouping) pairs -- the shape produced by a
    fragment-parallel ``group`` -- aggregate per fragment and combine
    partials; anything else coalesces to the monolithic pump."""
    if (
        isinstance(values, FragmentedBAT)
        and isinstance(grouping, FragmentedBAT)
        and fragments.same_fragmentation(values, grouping)
    ):
        impl = _FRAGMENT_PUMPS.get(agg)
        if impl is not None:
            return impl(values, grouping, n_groups)
    values = fragments.coalesce(values)
    grouping = fragments.coalesce(grouping)
    return pump_builtin(agg)(values, grouping, n_groups)
