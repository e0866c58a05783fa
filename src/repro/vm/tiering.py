"""Tiered adaptive execution: the online answer to the paper's oracle.

The :class:`TieredController` drives a hotness ladder over the existing
execution machinery:

* **tier 0** — interpret, maintaining per-method invocation counts (at
  ``prepare_method``) and loop-backedge counts (at every backward
  branch);
* **tier 1** — baseline JIT: the existing template translator with the
  optimizer off (cheap translate, mediocre code);
* **tier 2** — optimizing JIT: the dataflow passes (dead-store
  elimination, escape-driven lock elision) plus two *speculations* —
  loaded-world CHA devirtualization and speculative lock elision on
  allocation sites escape analysis could not prove.

Transitions:

* **promotion** happens at method entry (invocation threshold) or at a
  loop backedge (backedge threshold);
* **OSR entry** promotes a *running* activation: the interpreter frame
  (pc, locals, operand stack, monitor slot) is mapped into the compiled
  code at the loop header (``RuntimeStubs.emit_osr_entry``) and the
  frame continues in ``EMIT_OSR`` mode;
* **deoptimization** fires when a speculation fails — an elided lock's
  object is touched by a foreign thread, or class loading breaks a CHA
  assumption.  The compiled code is discarded, every live activation is
  mapped back to an equivalent interpreter frame
  (``RuntimeStubs.emit_deopt``), the failed speculation is blacklisted,
  and the method re-profiles from zero before any re-promotion.

Everything here is emission-side policy: bytecode semantics live in the
single stepper, so tier transitions can never change program behaviour
— only the native trace and its cost.  The one genuinely speculative
*semantic* shortcut (skipping the lock manager for speculatively-elided
objects) is repaired exactly on failure: the owner's elided region is
replayed through the lock manager before the foreign thread proceeds,
so blocking behaviour matches a non-eliding run.
"""

from __future__ import annotations

from ..isa.method import Method
from ..isa.opcodes import Op
from ..obs import TRACER
from ..sync.base import RECURSION_LIMIT
from .threads import EMIT_COMPILED, EMIT_INTERP, EMIT_OSR

#: Translate-cost model the tier-0 -> tier-1 decision prices against,
#: fit to the template translator's actual charges (linear in bytecode
#: count; see ``TranslateStubs.emit_translation``).  The controller only
#: needs an estimate — the real cost is charged when compiling happens.
TRANSLATE_CYCLES_PER_BYTECODE = 110
TRANSLATE_CYCLES_FIXED = 150

#: Install-cost model for methods already in the shared code archive
#: (one load/store pair per generated native instruction plus a fixed
#: relocation pass; see ``TranslateStubs.emit_install``).
INSTALL_CYCLES_PER_BYTECODE = 30
INSTALL_CYCLES_FIXED = 25


def estimated_translate_cycles(method) -> int:
    """Predicted cost of translating ``method`` (known before compiling)."""
    return TRANSLATE_CYCLES_FIXED + TRANSLATE_CYCLES_PER_BYTECODE * len(method.code)


def estimated_install_cycles(method) -> int:
    """Predicted cost of installing ``method`` from the code archive."""
    return INSTALL_CYCLES_FIXED + INSTALL_CYCLES_PER_BYTECODE * len(method.code)


class TierState:
    """Per-method ladder state (keyed by method on the controller)."""

    __slots__ = ("tier", "invocation_base", "backedge_base", "interp_base",
                 "cha_blacklist", "elide_blacklist", "t2_verdict",
                 "transitions")

    def __init__(self) -> None:
        self.tier = 0
        #: profile counts at the last deopt: thresholds apply to events
        #: *since* then, which is what "re-profile before re-promotion"
        #: means operationally.
        self.invocation_base = 0
        self.backedge_base = 0
        self.interp_base = 0
        self.cha_blacklist: set = set()      # (class_name, method_name)
        self.elide_blacklist: set = set()    # alloc-site bytecode index
        #: the tier-2 screen's verdict; None until screened and again
        #: whenever ``elide_blacklist`` grows (its only changing input)
        self.t2_verdict = None
        self.transitions: list = []          # ("promote"|"osr"|"deopt", tier[, reason])


class TieredController:
    """Owns tier decisions, OSR and deoptimization for one VM."""

    def __init__(self, vm, config) -> None:
        self.vm = vm
        self.config = config
        self.states: dict[Method, TierState] = {}
        # Aggregate transition counters (VMResult / manifests / spans).
        self.promotions_t1 = 0
        self.promotions_t2 = 0
        self.osr_entries = 0
        self.deopts = 0
        self.recompiles = 0
        self.deopt_reasons: dict[str, int] = {}
        self.speculative_marks = 0
        self.speculation_failures = 0
        self.archive_installs = 0
        #: method -> tier-1 archive probe result (memoized: the probe
        #: does a disk stat plus the key's resolution walk)
        self._archive_probe: dict[Method, bool] = {}
        #: (class_name, method_name) -> [(dependent_method, assumed_target)]
        self.assumptions: dict[tuple, list] = {}
        #: method -> [(alloc site, proven thread-local)] for sites that
        #: allocate a class with synchronized methods (tier-2 screen).
        self._sync_alloc_sites: dict[Method, list] = {}

    # ------------------------------------------------------------------
    # ladder state
    # ------------------------------------------------------------------
    def state_for(self, method) -> TierState:
        st = self.states.get(method)
        if st is None:
            st = self.states[method] = TierState()
        return st

    # ------------------------------------------------------------------
    # hotness events
    # ------------------------------------------------------------------
    def _hot_enough(self, method, st, profile) -> bool:
        """The tier-0 -> tier-1 pricing rule: promote once the method has
        burned ``compile_ratio`` x its estimated translate cost in the
        interpreter.  This is the oracle's ``n_i (I_i - E_i) > T_i``
        criterion restricted to online-observable quantities: interp
        cycles stand in for ``n_i I_i`` and the size-linear cost model
        for ``T_i``; methods too cold to ever repay translation never
        pass, methods with expensive loops pass mid-first-invocation."""
        spent = profile.interp_cycles - st.interp_base
        return spent >= (self.config.compile_ratio
                         * self._promotion_price(method))

    def _promotion_price(self, method) -> int:
        """Translate-cost estimate the t0 -> t1 decision prices against,
        discounted to the install-cost model when the shared code
        archive already holds this method's tier-1 code: warm workers
        repay compilation sooner, so they climb the ladder earlier (the
        fast-start half of the tradeoff the archive exists to move)."""
        jit = self.vm.jit
        if jit.archive is None:
            return estimated_translate_cycles(method)
        archived = self._archive_probe.get(method)
        if archived is None:
            archived = jit.archive.probe(jit, method, tier=1)
            self._archive_probe[method] = archived
        return (estimated_install_cycles(method) if archived
                else estimated_translate_cycles(method))

    def _tier2_profitable(self, method, st) -> bool:
        """The tier-1 -> tier-2 benefit screen: recompiling costs a full
        translate again, so it only happens when the optimizer can remove
        real work.  On this VM that means lock elision: the method must
        allocate a class that has synchronized methods at a site escape
        analysis proves thread-local (certain win) or at an unproven site
        that has not been blacklisted by a prior deopt (speculative,
        insured win).  Dead-store elimination and CHA inlining
        alone never repay a retranslate here, so they ride along rather
        than justify the trip.  ``config.t2_screen=False`` disables the
        screen (stress configs that want every deopt path hot).

        Every other input is static for the VM, so the verdict is kept
        on the method's state until its elide blacklist grows."""
        if not self.config.t2_screen:
            return True
        if st.t2_verdict is None:
            st.t2_verdict = self._screen_tier2(method, st)
        return st.t2_verdict

    def _screen_tier2(self, method, st) -> bool:
        sites = self._sync_alloc_sites.get(method)
        if sites is None:
            sites = []
            program = self.vm.loader.program
            for pc, ins in enumerate(method.code):
                if ins.op is not Op.NEW:
                    continue
                try:
                    target = program.get_class(
                        method.jclass.pool[ins.a].class_name)
                except KeyError:
                    continue
                if any(m.is_synchronized for m in target.methods.values()):
                    proven = pc in self.vm.elidable_sites(method)
                    sites.append((pc, proven))
            self._sync_alloc_sites[method] = sites
        static_safe = static_racy = frozenset()
        if self.vm.config.static_concurrency:
            static_safe, static_racy = self.vm.concurrency_plan(method)
        for pc, proven in sites:
            if proven or pc in static_safe:
                return True
            if pc not in st.elide_blacklist and pc not in static_racy:
                return True
        return False

    def on_invoke(self, method):
        """Invocation-count rung, called from ``prepare_method``.

        Returns the method's current compiled code (possibly just
        produced by a promotion), or ``None`` while it stays
        interpreted.
        """
        st = self.state_for(method)
        profile = self.vm.profiler.profile_for(method)
        n = profile.invocations - st.invocation_base
        s = self.config
        if st.tier == 0:
            if n >= s.t1_invocations and self._hot_enough(method, st, profile):
                return self._promote(method, st, profile, 1)
        elif st.tier == 1:
            if n >= s.t2_invocations and self._tier2_profitable(method, st):
                return self._promote(method, st, profile, 2)
        return self.vm._compiled.get(method)

    def on_backedge(self, thread, frame) -> None:
        """Loop-backedge rung, called by the branch handlers after a
        backward jump.  May promote the method and/or OSR this very
        activation into the compiled code."""
        profile = frame.profile
        if profile is None:
            return
        profile.backedges += 1
        frame.backedges += 1
        method = frame.method
        st = self.state_for(method)
        edges = profile.backedges - st.backedge_base
        s = self.config
        if st.tier == 0:
            if edges >= s.osr_backedges \
                    and self._hot_enough(method, st, profile):
                self._promote(method, st, profile, 1)
        elif st.tier == 1:
            if edges >= s.t2_backedges \
                    and self._tier2_profitable(method, st):
                self._promote(method, st, profile, 2)
        compiled = self.vm._compiled.get(method)
        if compiled is None:
            return
        mode = frame.emit_mode
        if mode == EMIT_INTERP or (
                mode >= EMIT_COMPILED and frame.compiled is not compiled):
            # Interpreted activation of a compiled method, or a tier-1
            # activation of a method since recompiled at tier 2: hop in
            # at this loop header.
            self._osr_enter(frame, compiled, st, profile)

    # ------------------------------------------------------------------
    # promotion / OSR
    # ------------------------------------------------------------------
    def _promote(self, method, st, profile, tier):
        vm = self.vm
        if tier >= 2:
            compiled = vm.jit.compile(
                method, tier=2, cha_blacklist=frozenset(st.cha_blacklist))
            for cname, mname, target in compiled.assumptions:
                self.assumptions.setdefault((cname, mname), []).append(
                    (method, target))
        else:
            compiled = vm.jit.compile(method, tier=1)
        if profile.was_compiled:
            self.recompiles += 1
        vm._compiled[method] = compiled
        vm._account_translation(method, compiled)
        st.tier = tier
        if compiled.from_archive:
            self.archive_installs += 1
            st.transitions.append(("promote", tier, "archive"))
            if TRACER.enabled:
                TRACER.add("vm.tier.archive_install")
        else:
            st.transitions.append(("promote", tier))
        profile.tier = tier
        profile.promotions += 1
        if tier == 1:
            self.promotions_t1 += 1
        else:
            self.promotions_t2 += 1
        if TRACER.enabled:
            TRACER.add(f"vm.tier.promote.t{tier}")
        return compiled

    def _osr_enter(self, frame, compiled, st, profile) -> None:
        """On-stack replacement: flip a live activation into compiled
        code at the loop header ``frame.ip`` now points at."""
        vm = self.vm
        frame.emit_mode = EMIT_OSR
        frame.chunks = compiled.chunks
        frame.compiled = compiled
        frame.backedges = 0
        vm.stubs.emit_osr_entry(
            vm.sink, frame, self._loop_header_pc(frame, compiled))
        st.transitions.append(("osr", st.tier))
        profile.osr_entries += 1
        self.osr_entries += 1
        if TRACER.enabled:
            TRACER.add("vm.tier.osr_entry")

    @staticmethod
    def _loop_header_pc(frame, compiled) -> int:
        """pc of the loop-header chunk (next non-empty at/after ip)."""
        chunks = compiled.chunks
        for i in range(frame.ip, len(chunks)):
            if chunks[i] is not None:
                return chunks[i].base_pc
        return compiled.entry_pc

    # ------------------------------------------------------------------
    # tier-2 speculation: lock elision beyond the static proof
    # ------------------------------------------------------------------
    def mark_allocation(self, thread, frame, obj) -> None:
        """Tier-2 allocation-site marking (called from the alloc ops).

        Sites escape analysis *proved* non-escaping elide exactly as the
        ``lock_elision`` config does.  Unproven, non-blacklisted sites
        are elided speculatively: the object remembers its site
        (``tl_spec``) so a foreign touch can repair and deoptimize.
        """
        compiled = frame.compiled
        if (compiled is None or compiled.tier < 2
                or frame.emit_mode < EMIT_COMPILED):
            return
        method = frame.method
        site = frame.ip - 1
        if site in self.vm.elidable_sites(method):
            obj.tl_thread = thread.thread_id
            return
        if self.vm.config.static_concurrency:
            safe, racy = self.vm.concurrency_plan(method)
            if site in safe:
                # Concurrency analysis proved every locker is the
                # allocating thread: elide without speculation.
                obj.tl_thread = thread.thread_id
                return
            if site in racy:
                return   # pre-blacklisted: a foreign lock is expected
        st = self.states.get(method)
        if st is not None and site in st.elide_blacklist:
            return
        obj.tl_thread = thread.thread_id
        obj.tl_spec = (method, site)
        self.speculative_marks += 1

    def on_foreign_touch(self, obj) -> None:
        """A speculatively-elided object was reached by a foreign thread:
        the escape speculation failed.  Repair exactly, then deopt.

        If the owner is inside an elided region, the region is replayed
        through the lock manager on the owner's behalf (the shadow
        counters are unwound), so the foreign thread blocks precisely
        where a non-eliding run would block.  The allocation site is
        blacklisted and the allocating method deoptimized.
        """
        method, site = obj.tl_spec
        obj.tl_spec = None
        owner = obj.tl_thread
        obj.tl_thread = None
        vm = self.vm
        depth = obj.elide_depth
        if depth:
            obj.elide_depth = 0
            stats = vm.lock_manager.stats
            stats.elided_acquires -= depth
            stats.elided_case_counts["a"] -= 1
            if depth > 1:
                stats.elided_case_counts["b"] -= min(depth - 1,
                                                     RECURSION_LIMIT - 1)
            if depth > RECURSION_LIMIT:
                stats.elided_case_counts["c"] -= depth - RECURSION_LIMIT
            for _ in range(depth):
                vm.lock_manager.acquire(owner, obj, vm.sink)
        self.speculation_failures += 1
        st = self.state_for(method)
        st.elide_blacklist.add(site)
        st.t2_verdict = None
        self.deoptimize(method, "lock_escape")

    # ------------------------------------------------------------------
    # tier-2 speculation: loaded-world CHA
    # ------------------------------------------------------------------
    def on_class_loaded(self, cls) -> None:
        """Class-load invalidation hook (``ClassLoader.on_load``).

        Any tier-2 method whose devirtualization assumed a unique
        *loaded* target that this class changes is deoptimized before
        an instance of the new class can ever be dispatched on.
        """
        if not self.assumptions:
            return
        program = self.vm.program
        for key, deps in list(self.assumptions.items()):
            if not deps:
                continue
            cname, mname = key
            if not program.is_subclass(cls.name, cname):
                continue
            current = program.unique_target(cname, mname,
                                            self.vm.loader.mirrors)
            for method, assumed in list(deps):
                if current is not assumed:
                    self.state_for(method).cha_blacklist.add(key)
                    self.deoptimize(method, "class_load")

    # ------------------------------------------------------------------
    # deoptimization
    # ------------------------------------------------------------------
    def deoptimize(self, method, reason: str) -> None:
        """Throw away the method's compiled code, map every live
        activation back to the interpreter, and restart profiling."""
        vm = self.vm
        st = self.state_for(method)
        invalidated = vm._compiled.pop(method, None)
        profile = vm.profiler.profile_for(method)
        st.tier = 0
        st.invocation_base = profile.invocations
        st.backedge_base = profile.backedges
        st.interp_base = profile.interp_cycles
        st.transitions.append(("deopt", 0, reason))
        profile.tier = 0
        profile.deopts += 1
        self.deopts += 1
        self.deopt_reasons[reason] = self.deopt_reasons.get(reason, 0) + 1
        dispatch_pc = vm.templates.dispatch_pc
        for thread in vm.threads:
            for fr in thread.frames:
                if fr.method is method and fr.emit_mode >= EMIT_COMPILED:
                    vm.stubs.emit_deopt(vm.sink, fr, dispatch_pc)
                    fr.emit_mode = EMIT_INTERP
                    fr.chunks = None
                    fr.compiled = None
                    fr.backedges = 0
        if invalidated is not None and invalidated.assumptions:
            for cname, mname, _target in invalidated.assumptions:
                deps = self.assumptions.get((cname, mname))
                if deps:
                    self.assumptions[(cname, mname)] = [
                        (m, t) for (m, t) in deps if m is not method
                    ]
        if TRACER.enabled:
            TRACER.add("vm.tier.deopt")
            TRACER.add(f"vm.tier.deopt.{reason}")

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def counters(self) -> dict:
        return {
            "promotions_t1": self.promotions_t1,
            "promotions_t2": self.promotions_t2,
            "osr_entries": self.osr_entries,
            "deopts": self.deopts,
            "recompiles": self.recompiles,
            "speculative_marks": self.speculative_marks,
            "speculation_failures": self.speculation_failures,
            "archive_installs": self.archive_installs,
        }

    def snapshot(self) -> dict:
        """Manifest/VMResult-ready view of the run's tiering activity."""
        methods = {}
        for method, st in self.states.items():
            if not st.transitions:
                continue
            methods[method.qualified_name] = {
                "tier": st.tier,
                "transitions": [list(t) for t in st.transitions],
            }
        snap = {"strategy": self.config.describe()}
        snap.update(self.counters())
        snap["deopt_reasons"] = dict(self.deopt_reasons)
        snap["methods"] = methods
        return snap
