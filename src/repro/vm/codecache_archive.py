"""Persistent cross-process shared JIT code archive (ShareJIT-style).

The paper's Figure 1 shows the translate portion dominating start-up
cycles and write misses; re-translating every method in every VM
instance (and every pool worker) repeats exactly that work.  Following
ShareJIT (PAPERS.md, arXiv 1810.09555), this module persists compiled
:class:`~repro.vm.jit.chunks.CompiledMethod` bodies in a
content-addressed on-disk archive so later VMs *install* them — a
streaming copy into the code cache priced at
:meth:`~repro.vm.jit.translate_stubs.TranslateStubs.emit_install` —
instead of re-running the translator.

Sharing compiled code across VMs is only sound if everything the
compiler baked into the chunks is part of the address.  The entry key
therefore covers

- the source digest of every trace-affecting module (via
  :func:`repro.analysis.cache.cache_key` — editing the VM invalidates
  the whole archive),
- the method's identity and bytecode (opcode/operand stream),
- the compiler configuration (tier, effective optimize flag, inlining,
  CHA speculation mode and blacklist), and
- the *link context*: resolved static-field addresses that get baked
  into chunk effective addresses, plus the inlining decision (target,
  field offsets, speculative or proven) at every call site.

The link context is the one the compiler resolves once per compile,
before it would translate (:meth:`~repro.vm.jit.compiler.JITCompiler.link`)
— on hits *and* misses — so archive-enabled runs resolve and load
classes identically whether they translate or install, and cold/warm
runs produce byte-identical execution traces.

Entries are the ``code`` namespace of the one content-addressed store,
:mod:`repro.analysis.cache`: pid-file locks, atomic writes, sha256
digest sidecars verified on load, and quarantine-and-recompile on
corruption — a corrupt archive entry is never executed.  Eviction is
size-capped LRU over entry mtimes (hits touch their entry), bounded by
:data:`LIMIT_BYTES`.
"""

from __future__ import annotations

import hashlib
import os
import pickle

from ..analysis import cache
from ..native.template import Template
from ..obs import TRACER
from .jit.chunks import Chunk, CompiledMethod, InlineSite, rebased

#: Payload schema version; bump on layout changes (defense in depth —
#: the source digest in the key already invalidates on code edits).
SCHEMA = 1

#: Size budget the LRU eviction keeps the archive within.
LIMIT_BYTES = 64 * 1024 * 1024

#: Run the (cheap) eviction scan every this many stores.
_GC_EVERY = 16

#: Template array fields serialized verbatim (numpy arrays).
_ARRAY_FIELDS = ("pc", "cat", "ea", "flags", "target", "dst", "src1",
                 "src2", "patch_ea", "patch_taken", "patch_target")


# -- link-context signature --------------------------------------------

def link_signature(link, optimize: bool) -> str:
    """Digest of everything translation bakes into the chunks: the
    method's code and compiler flags plus its link context
    (:class:`repro.vm.jit.compiler.Link`), the very resolutions
    translation reads."""
    method = link.method
    parts: list = [
        SCHEMA, method.qualified_name, method.argc, method.max_locals,
        int(method.is_static), int(method.is_synchronized),
        bool(optimize), bool(link.inline_enabled),
        bool(link.speculate_cha), sorted(link.cha_blacklist),
        [(int(i.op), i.a, i.b, repr(i.extra)) for i in method.code],
        sorted(link.statics.items()),
    ]
    for idx, decision in link.inlines.items():
        ref = method.pool[method.code[idx].a]
        site = (idx, ref.class_name, ref.method_name, ref.argc)
        if decision is not None:
            target, offsets, speculative = decision
            site += (target.qualified_name, tuple(offsets), speculative)
        parts.append(site)
    return hashlib.sha256(repr(parts).encode()).hexdigest()


# -- CompiledMethod (de)serialization ----------------------------------

def _template_payload(template: Template) -> dict:
    d = {f: getattr(template, f) for f in _ARRAY_FIELDS}
    d["name"] = template.name
    return d


def _chunk_payload(chunk: Chunk | None) -> dict | None:
    if chunk is None:
        return None
    d = _template_payload(chunk.template)
    d["ea_plan"] = chunk.ea_plan
    return d


def serialize_compiled(compiled: CompiledMethod) -> dict:
    """Position-annotated payload for one compiled method.  Methods are
    referenced by qualified name (resolved against the installing VM's
    program), never pickled."""
    return {
        "schema": SCHEMA,
        "name": compiled.method.qualified_name,
        "entry_pc": compiled.entry_pc,
        "end_pc": compiled.end_pc,
        "prologue": _chunk_payload(compiled.prologue),
        "chunks": [_chunk_payload(c) for c in compiled.chunks],
        "inline_info": [
            (idx, site.target.qualified_name, site.field_offsets)
            for idx, site in compiled.inline_info.items()
        ],
        "assumptions": [
            (cname, mname, target.qualified_name)
            for cname, mname, target in compiled.assumptions
        ],
    }


def _find_method(program, qualified_name: str):
    cname, _, mname = qualified_name.rpartition(".")
    jclass = program.classes.get(cname)
    method = jclass.find_method(mname) if jclass is not None else None
    if method is None:
        # The link context cannot be reproduced here: a miss, never an
        # error.
        raise cache.Unusable(qualified_name)
    return method


def _rebased_chunk(payload: dict, old_entry: int, old_end: int,
                   delta: int) -> Chunk:
    template = Template(name=payload["name"],
                        **{f: payload[f] for f in _ARRAY_FIELDS})
    return rebased(Chunk(template, payload.get("ea_plan")), old_entry,
                   old_end, delta)


def materialize_compiled(payload: dict, method, program,
                         code_cache) -> CompiledMethod:
    """Rebuild a :class:`CompiledMethod` at a freshly allocated position
    in this VM's code cache.  Raises :class:`repro.analysis.cache.Unusable`
    when a referenced method does not exist in this program."""
    old_entry = payload["entry_pc"]
    old_end = payload["end_pc"]
    n_words = (old_end - old_entry) // 4
    new_entry = code_cache.region.alloc(n_words)
    delta = new_entry - old_entry

    inline_info = {}
    for idx, target_qn, offsets in payload["inline_info"]:
        inline_info[idx] = InlineSite(_find_method(program, target_qn),
                                      offsets)
    assumptions = tuple(
        (cname, mname, _find_method(program, target_qn))
        for cname, mname, target_qn in payload["assumptions"]
    )
    prologue = _rebased_chunk(payload["prologue"], old_entry, old_end, delta)
    chunks = [
        None if c is None else _rebased_chunk(c, old_entry, old_end, delta)
        for c in payload["chunks"]
    ]
    compiled = CompiledMethod(method, chunks, prologue, new_entry,
                              old_end + delta, inline_info)
    compiled.assumptions = assumptions
    return compiled


# -- the archive -------------------------------------------------------

class CodeArchive:
    """One VM's handle on a shared on-disk compiled-code archive."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self._stores_since_gc = 0

    # -- addressing ----------------------------------------------------
    def entry_for(self, link, *, tier: int, optimize: bool) -> str:
        """Path of the entry holding ``link.method`` compiled at
        ``tier``."""
        key = cache.cache_key("code", signature=link_signature(link, optimize),
                              tier=tier)
        method = link.method
        safe = method.qualified_name.replace("/", "_").replace(":", "_")
        return cache.entry_path(self.directory, "code", f"{safe}-t{tier}",
                                key)

    def probe(self, compiler, method, tier: int) -> bool:
        """Existence check (no counters) for promotion pricing; links
        ``method`` as a ``tier`` compile would."""
        optimize, speculate_cha = compiler.tier_flags(tier)
        link = compiler.link(method, speculate_cha)
        return os.path.exists(self.entry_for(link, tier=tier,
                                             optimize=optimize))

    # -- load ----------------------------------------------------------
    def load(self, path: str, method, compiler) -> CompiledMethod | None:
        """The archived compiled method, installed into this VM's code
        cache; ``None`` on miss, corruption (quarantined), or an
        unreproducible link context."""
        def decode(data: bytes) -> CompiledMethod:
            payload = pickle.loads(data)
            if payload.get("schema") != SCHEMA:
                raise cache.CorruptEntry(os.path.basename(path))
            return materialize_compiled(
                payload, method, compiler.program,
                compiler.code_cache)

        compiled = cache.lookup("code", path, decode)
        if compiled is None:
            self.misses += 1
        else:
            self.hits += 1
        return compiled

    # -- store ---------------------------------------------------------
    def store(self, path: str, compiled: CompiledMethod) -> None:
        cache.store("code", path,
                    pickle.dumps(serialize_compiled(compiled),
                                 protocol=pickle.HIGHEST_PROTOCOL))
        self.stores += 1
        self._stores_since_gc += 1
        if self._stores_since_gc >= _GC_EVERY:
            self._stores_since_gc = 0
            self.gc()

    # -- eviction ------------------------------------------------------
    def gc(self, limit_bytes: int = LIMIT_BYTES) -> int:
        """Evict least-recently-used entries until the archive fits the
        size budget; returns the number of entries evicted.  Hits touch
        their entry's mtime, so recency tracks use, not creation."""
        directory = os.path.join(self.directory, "code")
        entries = []
        try:
            names = os.listdir(directory)
        except OSError:
            return 0
        for name in names:
            if not name.endswith(".pkl"):
                continue
            path = os.path.join(directory, name)
            try:
                st = os.stat(path)
            except OSError:
                continue
            entries.append((st.st_mtime, st.st_size, path))
        total = sum(size for _, size, _ in entries)
        entries.sort()
        evicted = 0
        while entries and total > limit_bytes:
            _, size, path = entries.pop(0)
            if not cache.remove_entry(path):
                continue
            total -= size
            evicted += 1
            cache.STATS.count("code_evicted")
        if evicted and TRACER.enabled:
            TRACER.add("cache.code_evicted", evicted)
        return evicted

    # -- reporting -----------------------------------------------------
    def counters(self) -> dict:
        return {"dir": self.directory, "hits": self.hits,
                "misses": self.misses, "stores": self.stores}
