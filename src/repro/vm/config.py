"""One description of a VM run.

A :class:`RunConfig` is the whole answer to "how was this program
executed": the compile policy with its thresholds, the optimizer
switches, the lock manager and the runtime limits.  It is a frozen,
hashable value, so two runs compare equal exactly when they were
configured the same way.  Profiling is not a field: every VM keeps
per-method profiles (the oracle and the tiered ladder read them, and
they never change a simulated number), so every field is one that
decides what a run simulates.

The paper's Section 3 compile policies are one field, ``policy``:

- ``"threshold"`` compiles a method at its ``threshold``-th invocation.
  ``threshold=None`` never compiles (the pure interpreter, ``interp``),
  ``threshold=1`` is Kaffe's compile-on-first-use JIT (``jit``), and a
  larger threshold is the HotSpot-style counter ablation.
- ``"oracle"`` is the paper's ``opt`` model: ``compile_set`` (chosen by
  :mod:`repro.analysis.hybrid` with perfect knowledge) is compiled on
  first use and everything else is interpreted.
- ``"tiered"`` is the online answer to the oracle: a hotness ladder
  (interpret, baseline JIT, optimizing JIT) with on-stack replacement
  and deoptimization, run by :class:`repro.vm.tiering.TieredController`.
  A method reaches tier 1 once it has burned ``compile_ratio`` times its
  estimated translate cost in the interpreter, subject to the
  ``t1_invocations``/``osr_backedges`` event gates; tier 2 is gated by
  ``t2_invocations``/``t2_backedges`` and, with ``t2_screen``, by a
  benefit screen.

Every config has one canonical :attr:`~RunConfig.token`, and
:meth:`RunConfig.parse` inverts it::

    token := head ("," field "=" value)*
    head  := "interp" | "jit" | "counter" N | "tiered" | "oracle"

The head spells ``policy`` and ``threshold``.  Every other field that
differs from its default follows, once, in declaration order.  Floats
are written with ``repr``, booleans as ``True``/``False``, and
``compile_set`` as its sorted names joined by ``;``.  So ``RunConfig()``
is ``jit``, and the deopt-stress ladder is
``tiered,t2_invocations=3,t2_backedges=8,compile_ratio=0.01,t2_screen=False``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields

POLICIES = ("threshold", "tiered", "oracle")

#: The tiered ladder's parameters, in ``describe`` order.
TIER_FIELDS = ("t1_invocations", "t2_invocations", "osr_backedges",
               "t2_backedges", "compile_ratio", "t2_screen")

#: Characters the token grammar reserves; compile-set names may not use them.
_RESERVED = frozenset(",;=")

#: Fields the token's head spells; every other field is a ``name=value``.
_HEAD = ("policy", "threshold")


@dataclass(frozen=True)
class RunConfig:
    """How one VM run executes its program (see the module docstring)."""

    policy: str = "threshold"
    #: threshold policy: compile at this invocation; ``None`` never compiles
    threshold: int | None = 1
    t1_invocations: int = 2
    t2_invocations: int = 64
    osr_backedges: int = 4
    t2_backedges: int = 512
    compile_ratio: float = 0.125
    #: With the screen off, any method passing the tier-2 counters is
    #: recompiled and unproven allocation sites are speculated on
    #: wholesale: slower, but every deopt path stays hot.
    t2_screen: bool = True
    #: oracle policy: qualified names of the methods to compile
    compile_set: frozenset = frozenset()
    jit_opt: bool = False
    lock_elision: bool = False
    inline: bool = True
    folding: bool = False
    record: bool = False
    #: a name from :data:`repro.sync.LOCK_MANAGERS`
    lock_manager: str = "monitor-cache"
    static_concurrency: bool = False
    track_confinement: bool = False
    spawn_daemons: bool = True
    quantum: int = 60
    heap_limit: int = 64 << 20
    max_bytecodes: int = 80_000_000

    def __post_init__(self) -> None:
        from ..sync import LOCK_MANAGERS

        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "threshold":
                if value is not None and not _is_int(value):
                    raise ValueError(
                        f"threshold must be an integer or None, not {value!r}")
            elif f.name == "compile_set":
                value = frozenset(value)
                if not all(isinstance(n, str) and n and not _RESERVED & set(n)
                           for n in value):
                    raise ValueError("compile_set names must be non-empty "
                                     "strings without ',', ';' or '='")
            elif isinstance(f.default, bool):
                if not isinstance(value, bool):
                    raise ValueError(f"{f.name} must be a bool, not {value!r}")
            elif isinstance(f.default, int):
                if not _is_int(value) or value < 1:
                    raise ValueError(
                        f"{f.name} must be an integer >= 1, not {value!r}")
            elif isinstance(f.default, float):
                if not isinstance(value, (int, float)) \
                        or isinstance(value, bool) or not value > 0:
                    raise ValueError(
                        f"{f.name} must be a positive number, not {value!r}")
                value = float(value)
            object.__setattr__(self, f.name, value)
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}; "
                             f"expected one of {POLICIES}")
        if self.threshold is not None and self.threshold < 1:
            raise ValueError("threshold must be >= 1")
        if self.policy != "threshold" and self.threshold != 1:
            raise ValueError("threshold applies to the threshold policy only")
        if self.policy != "tiered" and any(
                getattr(self, k) != getattr(RunConfig, k)
                for k in TIER_FIELDS):
            raise ValueError("tier parameters apply to the tiered policy only")
        if self.t2_invocations <= self.t1_invocations:
            raise ValueError("t2_invocations must exceed t1_invocations")
        if self.policy != "oracle" and self.compile_set:
            raise ValueError("compile_set applies to the oracle policy only")
        if self.lock_manager not in LOCK_MANAGERS:
            raise ValueError(f"unknown lock manager {self.lock_manager!r}; "
                             f"expected one of {sorted(LOCK_MANAGERS)}")

    # ------------------------------------------------------------------
    # spelling
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """The compile policy's name, as ``VMResult.strategy`` reports it."""
        if self.policy != "threshold":
            return self.policy
        return {None: "interp", 1: "jit"}.get(self.threshold, "counter")

    @property
    def token(self) -> str:
        """The canonical spelling; ``RunConfig.parse`` inverts it."""
        head = self.name
        if head == "counter":
            head += str(self.threshold)
        parts = [head]
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in _HEAD and value != f.default:
                parts.append(f"{f.name}={_format(value)}")
        return ",".join(parts)

    @classmethod
    def parse(cls, token: str) -> "RunConfig":
        """The config a token spells (fields may come in any order)."""
        head, *items = token.split(",")
        kwargs: dict = {}
        if head == "interp":
            kwargs["threshold"] = None
        elif head.startswith("counter") and head[7:].isdigit():
            kwargs["threshold"] = int(head[7:])
        elif head in ("oracle", "tiered"):
            kwargs["policy"] = head
        elif head != "jit":
            raise ValueError(f"unknown run config {token!r}: the head must "
                             "be interp, jit, counterN, tiered or oracle")
        defaults = {f.name: f.default for f in fields(cls)
                    if f.name not in _HEAD}
        for item in items:
            name, sep, text = item.partition("=")
            if not sep or name not in defaults or name in kwargs:
                raise ValueError(f"bad field {item!r} in run config {token!r}")
            kwargs[name] = _parse_value(defaults[name], text)
        return cls(**kwargs)

    @classmethod
    def of(cls, config: "RunConfig | str") -> "RunConfig":
        """``config`` itself, or the config its token string spells."""
        if isinstance(config, cls):
            return config
        if isinstance(config, str):
            return cls.parse(config)
        raise TypeError(f"expected a RunConfig or a token string, "
                        f"not {config!r}")

    def replace(self, **changes) -> "RunConfig":
        """A copy with ``changes`` applied (and validated)."""
        return dataclasses.replace(self, **changes)

    def describe(self) -> dict:
        """The compile policy with its parameters (``strategy_config``)."""
        name = self.name
        if name == "counter":
            return {"name": name, "threshold": self.threshold}
        if name == "tiered":
            return {"name": name, **{k: getattr(self, k) for k in TIER_FIELDS}}
        if name == "oracle":
            return {"name": name, "compile_set_size": len(self.compile_set)}
        return {"name": name}

    # ------------------------------------------------------------------
    # the threshold and oracle policies (tiered is TieredController's)
    # ------------------------------------------------------------------
    def should_compile(self, method, invocations: int) -> bool:
        """Whether ``method`` should be compiled at this invocation."""
        if self.policy == "oracle":
            return method.qualified_name in self.compile_set
        threshold = self.threshold
        return threshold is not None and invocations >= threshold


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _format(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, frozenset):
        return ";".join(sorted(value))
    return str(value)


def _parse_value(default, text: str):
    if isinstance(default, bool):
        if text not in ("True", "False"):
            raise ValueError(f"expected True or False, not {text!r}")
        return text == "True"
    if isinstance(default, frozenset):
        return frozenset(text.split(";")) if text else frozenset()
    if isinstance(default, (int, float)):
        return type(default)(text)
    return text


#: A hair-trigger ladder: promotion after a handful of events and the
#: tier-2 benefit screen off, so promotion, OSR, speculation and
#: deoptimization all fire inside small programs.  The fuzz oracle, the
#: static/dynamic cross-check and the deopt scenarios all run it.
STRESS_TIERED = RunConfig(policy="tiered", t2_invocations=3,
                          t2_backedges=8, compile_ratio=0.01,
                          t2_screen=False)
