"""The native engine: the generated C, compiled and loaded (§6.1).

:class:`NativeMachine` compiles the whole-program C file emitted by
:func:`repro.backends.c.codegen.generate_native` into a shared object
(content-addressed cache, see :mod:`repro.backends.c.build`), loads it
through :mod:`ctypes`, and mirrors the Python :class:`Machine`'s
observable surface — print traces, counters, heap events, process
statuses, runtime errors — from the loaded code.

The Python↔C boundary is batched: :class:`NativeScheduler` calls
``esp_run_quantum``, which executes whole scheduler quanta (run ready
processes, enumerate internal rendezvous, pick, apply) natively and
returns only when the program finishes, idles, exhausts its transfer
budget, errors, or can progress only through an external bridge.
Externalized events (prints) come back in a flat ``long long`` ring
drained once per quantum; host-side external channels (§4.5) are
serviced between quanta in the exact order the Python machine
enumerates them, so shared-seed runs agree move for move.

Not supported (use the compiled engine): ``snapshot``/``restore`` (the
verifier), ``max_objects`` heap bounding, and the ``random`` policy.
See docs/ENGINE.md ("native") for the contract and the documented
divergence corners.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import tempfile
from ctypes import POINTER, byref, c_char_p, c_int, c_longlong

from repro.backends.c.build import build_shared, cache_dir, find_cc, artifact_key
from repro.backends.c.codegen import generate_native
from repro.errors import AssertionFailure, ESPRuntimeError
from repro.runtime.external import ExternalReader, ExternalWriter
from repro.runtime.interp import Status, array_size_error
from repro.runtime.scheduler import RunResult

#: Must match ESP_EV_CAP in runtime_c.py (drain buffer sizing).
_EV_CAP = 65536

_FLUSH_FN = ctypes.CFUNCTYPE(None, POINTER(c_longlong), c_longlong)

_STATUS = {0: Status.READY, 1: Status.BLOCKED, 2: Status.DONE}


# ---------------------------------------------------------------------------
# Value codec: the self-describing long-long encoding shared with the
# generated code (see runtime_c.py, "event ring + value codec").
# ---------------------------------------------------------------------------


def _decode_val(words, pos: int, tree: dict):
    kind = words[pos]
    if kind == 0:
        v = words[pos + 1]
        if tree.get("k") == "bool":
            v = bool(v)
        return v, pos + 2
    if kind == 1:
        n = words[pos + 1]
        pos += 2
        fields = tree.get("fields") or []
        out = []
        for i in range(n):
            sub = fields[i] if i < len(fields) else {"k": "int", "s": "int"}
            v, pos = _decode_val(words, pos, sub)
            out.append(v)
        return tuple(out), pos
    if kind == 2:
        tag_index = words[pos + 1]
        pos += 2
        tags = tree.get("tags") or []
        name, sub = tags[tag_index]
        inner, pos = _decode_val(words, pos, sub)
        return (name, inner), pos
    # kind == 3: array
    n = words[pos + 1]
    pos += 2
    elem = tree.get("elem", {"k": "int", "s": "int"})
    out = []
    for _ in range(n):
        v, pos = _decode_val(words, pos, elem)
        out.append(v)
    return out, pos


def _encode_val(raw, tree: dict, out: list) -> None:
    """Mirror of ``interp.build_value``: plain Python data → encoding,
    raising the same errors for data that does not convert."""
    k = tree["k"]
    if k in ("record", "union", "array") and not isinstance(raw, (tuple, list)):
        raise ESPRuntimeError(f"cannot convert {raw!r} to {tree['s']}")
    if k == "record":
        fields = tree["fields"]
        if len(raw) != len(fields):
            raise ESPRuntimeError(f"cannot convert {raw!r} to {tree['s']}")
        out.append(1)
        out.append(len(fields))
        for sub, item in zip(fields, raw):
            _encode_val(item, sub, out)
        return
    if k == "union":
        if len(raw) != 2:
            raise ESPRuntimeError(f"cannot convert {raw!r} to {tree['s']}")
        tag, inner = raw
        for index, (name, sub) in enumerate(tree["tags"]):
            if name == tag:
                out.append(2)
                out.append(index)
                _encode_val(inner, sub, out)
                return
        raise ESPRuntimeError(f"unknown union tag '{tag}' in external data")
    if k == "array":
        out.append(3)
        out.append(len(raw))
        for item in raw:
            _encode_val(item, tree["elem"], out)
        return
    if isinstance(raw, int):  # bools are ints
        out.append(0)
        out.append(int(raw))
        return
    raise ESPRuntimeError(f"cannot convert {raw!r} to {tree['s']}")


# ---------------------------------------------------------------------------
# Facades: counters / heap / processes, backed by esp_get_counters
# ---------------------------------------------------------------------------


class _CounterView:
    """Reads one slot of the ``esp_c`` counter block per attribute
    access; layout documented in runtime_c.py."""

    _slots_map = {}

    def __init__(self, machine: "NativeMachine"):
        self._machine = machine

    def __getattr__(self, name: str):
        try:
            index = self._slots_map[name]
        except KeyError:
            raise AttributeError(name) from None
        return self._machine._counter(index)


class _NativeCounters(_CounterView):
    _slots_map = {"instructions": 0, "context_switches": 1, "transfers": 2,
                  "alt_blocks": 3, "matches": 4, "idle_polls": 5, "prints": 6}


class _NativeHeapCounters(_CounterView):
    _slots_map = {"allocations": 7, "frees": 8, "links": 9, "unlinks": 10}

    def snapshot(self) -> tuple[int, int, int, int]:
        c = self._machine._counters()
        return (c[7], c[8], c[9], c[10])


class _NativeHeap:
    def __init__(self, machine: "NativeMachine"):
        self._machine = machine
        self.counters = _NativeHeapCounters(machine)

    def live_count(self) -> int:
        return self._machine._counter(11)


class _ProcName:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class _NativeProcess:
    """Read-only view of one native process (status + name)."""

    def __init__(self, machine: "NativeMachine", pid: int, name: str):
        self._machine = machine
        self.pid = pid
        self.proc = _ProcName(name)

    @property
    def status(self) -> Status:
        return _STATUS[self._machine._lib.esp_proc_status(self.pid)]


# ---------------------------------------------------------------------------
# External moves (host side of the quantum protocol)
# ---------------------------------------------------------------------------


class _AcceptMove:
    __slots__ = ("chan_id", "channel", "sender_pid", "sender_arm")

    def __init__(self, chan_id, channel, sender_pid, sender_arm):
        self.chan_id = chan_id
        self.channel = channel
        self.sender_pid = sender_pid
        self.sender_arm = sender_arm


class _DeliverMove:
    __slots__ = ("chan_id", "channel", "entry_idx", "entry_name", "args",
                 "receiver_pid", "receiver_arm")

    def __init__(self, chan_id, channel, entry_idx, entry_name, args,
                 receiver_pid, receiver_arm):
        self.chan_id = chan_id
        self.channel = channel
        self.entry_idx = entry_idx
        self.entry_name = entry_name
        self.args = args
        self.receiver_pid = receiver_pid
        self.receiver_arm = receiver_arm


# ---------------------------------------------------------------------------
# The machine
# ---------------------------------------------------------------------------


class NativeMachine:
    """One instantiated ESP program, executing inside a loaded shared
    object.  Exposes the same observable surface as
    :class:`repro.runtime.machine.Machine` (counters, heap events,
    prints, statuses, errors) but not the verifier's snapshot/restore.
    """

    is_native = True
    engine = "native"

    def __init__(self, program, externals=None, max_objects=None,
                 print_handler=None):
        if max_objects is not None:
            raise ValueError(
                "the native engine does not support max_objects; "
                "use --engine compiled"
            )
        self.program = program
        self.externals = dict(externals or {})
        self.print_handler = print_handler
        self.prints: list[tuple[str, list]] = []

        source, manifest = generate_native(program)
        self._manifest = manifest
        cc = find_cc()
        self.cache_hit = (
            cc is not None
            and (cache_dir() / f"{artifact_key(source, cc)}.so").exists()
        )
        self.artifact = build_shared(source)
        self._lib, self._tls_path = self._load_isolated(self.artifact)
        self._declare(self._lib)

        # Manifest-derived tables.
        self._sites = manifest["sites"]
        self._proc_names = manifest["proc_names"]
        self._channels = manifest["channels"]           # id order
        self._channel_names = [c["name"] for c in self._channels]
        self._channel_ids = {c["name"]: i for i, c in enumerate(self._channels)}
        # channel name -> entry name -> (decl index, binder list)
        self._entries: dict[str, dict[str, tuple[int, list]]] = {}
        for channel, rows in manifest["interfaces"].items():
            self._entries[channel] = {
                row["entry"]: (idx, row["binders"])
                for idx, row in enumerate(rows)
            }
        # channel name -> entry name -> receive sites (pid, state, arm)
        # an offer with unknown arguments is routed to.
        self._routes = {
            channel: {entry: {tuple(site) for site in sites}
                      for entry, sites in entries.items()}
            for channel, entries in manifest["routes"].items()
        }

        self.counters = _NativeCounters(self)
        self.heap = _NativeHeap(self)
        self.processes = [
            _NativeProcess(self, pid, name)
            for pid, name in enumerate(self._proc_names)
        ]

        self._cbuf = (c_longlong * 12)()
        self._ebuf = (c_longlong * 4)()
        self._evbuf = (c_longlong * _EV_CAP)()
        self._accept_buf = (c_longlong * _EV_CAP)()
        self._externals_validated = False

        # Keep a reference: ctypes callbacks die with their wrapper.
        self._flush_cb = _FLUSH_FN(self._on_flush)
        self._lib.esp_init()
        self._lib.esp_set_flush_cb(self._flush_cb)

    # -- loading ------------------------------------------------------------------

    @staticmethod
    def _load_isolated(artifact) -> tuple[ctypes.CDLL, str]:
        """dlopen a private copy so each machine gets its own globals
        (dlopen memoizes by path; two machines sharing one ``.so``
        image would share process tables).  The link is removed right
        after loading — the mapping keeps the image alive."""
        fd, path = tempfile.mkstemp(suffix=".so")
        os.close(fd)
        shutil.copyfile(artifact, path)
        try:
            lib = ctypes.CDLL(path)
        finally:
            os.unlink(path)
        return lib, path

    @staticmethod
    def _declare(lib) -> None:
        LL, I, PLL = c_longlong, c_int, POINTER(c_longlong)
        lib.esp_init.argtypes = []
        lib.esp_init.restype = None
        lib.esp_run_quantum.argtypes = [LL, I]
        lib.esp_run_quantum.restype = I
        lib.esp_apply_accept.argtypes = [I, I, I, PLL, LL, PLL]
        lib.esp_apply_accept.restype = LL
        lib.esp_apply_deliver.argtypes = [I, I, I, I, PLL]
        lib.esp_apply_deliver.restype = I
        lib.esp_try_reach.argtypes = [I, I, I, I, PLL]
        lib.esp_try_reach.restype = I
        lib.esp_set_ext_flags.argtypes = [I, I, I]
        lib.esp_set_ext_flags.restype = None
        lib.esp_get_picks.argtypes = []
        lib.esp_get_picks.restype = LL
        lib.esp_set_picks.argtypes = [LL]
        lib.esp_set_picks.restype = None
        lib.esp_events_drain.argtypes = [PLL, LL]
        lib.esp_events_drain.restype = LL
        lib.esp_set_flush_cb.argtypes = [_FLUSH_FN]
        lib.esp_set_flush_cb.restype = None
        lib.esp_get_counters.argtypes = [PLL]
        lib.esp_get_counters.restype = None
        for fn in ("esp_proc_status", "esp_proc_state", "esp_block_kind",
                   "esp_block_chan", "esp_arm_count_x"):
            getattr(lib, fn).argtypes = [I]
            getattr(lib, fn).restype = I
        lib.esp_arm_info_x.argtypes = [I, I, POINTER(I), POINTER(I), POINTER(I)]
        lib.esp_arm_info_x.restype = None
        lib.esp_get_error.argtypes = [PLL]
        lib.esp_get_error.restype = None
        lib.esp_get_error_msg.argtypes = []
        lib.esp_get_error_msg.restype = c_char_p

    # -- counters -----------------------------------------------------------------

    def _counters(self):
        self._lib.esp_get_counters(self._cbuf)
        return self._cbuf

    def _counter(self, index: int) -> int:
        return self._counters()[index]

    # -- status -------------------------------------------------------------------

    def all_done(self) -> bool:
        return all(ps.status is Status.DONE for ps in self.processes)

    # -- validation ---------------------------------------------------------------

    def _validate_externals(self) -> None:
        if self._externals_validated:
            return
        self._externals_validated = True
        for info in self._channels:
            channel = info["name"]
            bridge = self.externals.get(channel)
            if info["external"] == "writer" and not isinstance(bridge, ExternalWriter):
                raise ESPRuntimeError(
                    f"channel '{channel}' needs an ExternalWriter bridge"
                )
            if info["external"] == "reader" and not isinstance(bridge, ExternalReader):
                raise ESPRuntimeError(
                    f"channel '{channel}' needs an ExternalReader bridge"
                )

    # -- events -------------------------------------------------------------------

    def _on_flush(self, words, n: int) -> None:
        self._consume_events(words, n)

    def _drain_events(self) -> None:
        n = self._lib.esp_events_drain(self._evbuf, _EV_CAP)
        if n:
            self._consume_events(self._evbuf, n)

    def _consume_events(self, words, n: int) -> None:
        i = 0
        while i < n:
            site = self._sites[words[i] - 1]
            nwords = words[i + 1]
            i += 2
            values: list = []
            pos = i
            for tree in site["trees"]:
                v, pos = _decode_val(words, pos, tree)
                values.append(v)
            i += nwords
            name = site["proc"]
            self.prints.append((name, values))
            if self.print_handler is not None:
                self.print_handler(name, values)

    # -- errors -------------------------------------------------------------------

    def _error_from_site(self) -> ESPRuntimeError:
        """Reconstruct the Python engines' exact error from the native
        error registers + the manifest's site table."""
        self._lib.esp_get_error(self._ebuf)
        site_id, a, b, c3 = (self._ebuf[0], self._ebuf[1],
                             self._ebuf[2], self._ebuf[3])
        if site_id == 0:
            msg = self._lib.esp_get_error_msg()
            return ESPRuntimeError(msg.decode() if msg else "native runtime error")
        site = self._sites[site_id - 1]
        kind = site["kind"]
        span = site["span"]
        if kind == "div":
            return ESPRuntimeError("division by zero", span)
        if kind == "shift":
            return ESPRuntimeError("negative shift count", span)
        if kind == "index":
            return ESPRuntimeError(
                f"array index {a} out of bounds (size {b})", span)
        if kind == "negsize":
            return array_size_error(a, span)
        if kind == "assert":
            return AssertionFailure(
                f"assertion failed in process '{site['proc']}'", span)
        if kind == "altfalse":
            return ESPRuntimeError(
                "alt blocked with every guard false (permanent deadlock)", span)
        if kind == "match_eq":
            fmt = (lambda v: str(bool(v))) if site.get("bool") else str
            return ESPRuntimeError(
                f"pattern match failed: expected {fmt(a)}, got {fmt(b)}", span)
        if kind == "match_tag":
            tags = site.get("tags") or []
            actual = tags[a] if 0 <= a < len(tags) else str(a)
            return ESPRuntimeError(
                f"pattern match failed: union tag is '{actual}', "
                f"pattern wants '{site['want']}'", span)
        if kind == "outmatch":
            proc = self._proc_names[a]
            return ESPRuntimeError(
                f"message sent by '{proc}' on channel '{site['chan']}' "
                "matches no receive pattern")
        if kind == "deliver":
            sender = self._proc_names[a]
            receiver = self._proc_names[b]
            channel = self._channel_names[c3]
            return ESPRuntimeError(
                f"message from '{sender}' does not match the waiting "
                f"pattern of '{receiver}' on '{channel}'")
        if kind == "accept":
            return ESPRuntimeError("message matches no external interface entry")
        return ESPRuntimeError(f"native runtime error at site {site_id}")

    # -- external bridge protocol ---------------------------------------------------

    def _refresh_ext_flags(self) -> None:
        """Snapshot bridge readiness into the quantum's per-channel
        flags (the generated scheduler only consults these to decide
        whether an external move is *potential*; the host settles the
        real question between quanta)."""
        lib = self._lib
        for cid, info in enumerate(self._channels):
            ext = info["external"]
            if not ext:
                continue
            bridge = self.externals.get(info["name"])
            if ext == "reader":
                lib.esp_set_ext_flags(cid, 1 if bridge.can_accept() else 0, 0)
            else:
                lib.esp_set_ext_flags(cid, 0, 1 if bridge.offers() else 0)

    def _external_slots(self):
        """Blocked sender/receiver slots grouped by channel in the
        Python machine's exact first-seen (pid scan) order."""
        lib = self._lib
        senders: dict[int, list] = {}
        receivers: dict[int, list] = {}
        kind = c_int()
        chan = c_int()
        enabled = c_int()
        for pid in range(len(self.processes)):
            if lib.esp_proc_status(pid) != 1:
                continue
            bk = lib.esp_block_kind(pid)
            if bk == 2:
                senders.setdefault(lib.esp_block_chan(pid), []).append((pid, -1))
            elif bk == 1:
                receivers.setdefault(lib.esp_block_chan(pid), []).append((pid, -1))
            elif bk == 3:
                for k in range(lib.esp_arm_count_x(pid)):
                    lib.esp_arm_info_x(pid, k, byref(kind), byref(chan),
                                       byref(enabled))
                    if not enabled.value:
                        continue
                    slots = senders if kind.value == 1 else receivers
                    slots.setdefault(chan.value, []).append((pid, k))
        return senders, receivers

    def _external_moves(self) -> list:
        """Enumerate the currently enabled external moves, in the order
        ``Machine.enabled_moves`` lists them: accepts (sender channels,
        first-seen) before delivers (receiver channels, first-seen)."""
        senders, receivers = self._external_slots()
        moves: list = []
        for cid, sends in senders.items():
            info = self._channels[cid]
            if info["external"] != "reader":
                continue
            bridge = self.externals[info["name"]]
            if bridge.can_accept():
                for pid, arm in sends:
                    moves.append(_AcceptMove(cid, info["name"], pid, arm))
        for cid, recvs in receivers.items():
            info = self._channels[cid]
            if info["external"] != "writer":
                continue
            channel = info["name"]
            bridge = self.externals[channel]
            entries = self._entries[channel]
            for entry_name, args in bridge.offers():
                entry_idx, binders = entries[entry_name]
                if args is None:
                    # Arguments unknown until take(): route on the
                    # entry's shape (Machine._deliveries' rule).
                    routes = self._routes[channel][entry_name]
                    for r_pid, r_arm in recvs:
                        state = self._lib.esp_proc_state(r_pid)
                        if (r_pid, state, r_arm) in routes:
                            moves.append(_DeliverMove(
                                cid, channel, entry_idx, entry_name, (),
                                r_pid, r_arm))
                    continue
                args_t = tuple(args)
                try:
                    enc = self._encode_args(args_t, binders)
                except ESPRuntimeError:
                    continue  # short or unencodable: undeliverable
                for r_pid, r_arm in recvs:
                    if self._lib.esp_try_reach(cid, entry_idx, r_pid, r_arm, enc):
                        moves.append(_DeliverMove(
                            cid, channel, entry_idx, entry_name, args_t,
                            r_pid, r_arm))
        return moves

    def _encode_args(self, args: tuple, binders: list):
        """Encode host arguments for the entry's binders; raises the
        Python engines' error when one is missing or does not convert."""
        if len(args) < len(binders):
            binder = binders[len(args)]
            raise ESPRuntimeError(
                f"external message missing argument for binder "
                f"'{binder['name']}'",
                binder["span"],
            )
        out: list = []
        for binder, raw in zip(binders, args):
            _encode_val(raw, binder["tree"], out)
        return (c_longlong * max(len(out), 1))(*out)

    def _apply_external(self, move) -> None:
        if isinstance(move, _AcceptMove):
            self._apply_accept(move)
        else:
            self._apply_deliver(move)

    def _apply_accept(self, move: _AcceptMove) -> None:
        bridge: ExternalReader = self.externals[move.channel]
        out_n = c_longlong()
        idx = self._lib.esp_apply_accept(
            move.chan_id, move.sender_pid, move.sender_arm,
            self._accept_buf, _EV_CAP, byref(out_n),
        )
        if idx < 0:
            raise self._error_from_site()
        rows = self._manifest["interfaces"][move.channel]
        row = rows[idx]
        args: list = []
        pos = 0
        for binder in row["binders"]:
            v, pos = _decode_val(self._accept_buf, pos, binder["tree"])
            args.append(v)
        bridge.accept(row["entry"], tuple(args))

    def _apply_deliver(self, move: _DeliverMove) -> None:
        bridge: ExternalWriter = self.externals[move.channel]
        taken = bridge.take(move.entry_name)
        args = move.args if move.args else tuple(taken or ())
        _idx, binders = self._entries[move.channel][move.entry_name]
        enc = self._encode_args(args, binders)
        rc = self._lib.esp_apply_deliver(
            move.chan_id, move.entry_idx,
            move.receiver_pid, move.receiver_arm, enc,
        )
        if rc == 2:
            raise ESPRuntimeError(
                f"external message '{move.entry_name}' does not match the "
                f"waiting pattern on '{move.channel}'"
            )
        if rc != 0:
            raise self._error_from_site()


# ---------------------------------------------------------------------------
# The scheduler
# ---------------------------------------------------------------------------


class NativeScheduler:
    """Drives a :class:`NativeMachine` through the quantum protocol,
    reproducing :class:`repro.runtime.scheduler.Scheduler`'s policy,
    aging rhythm, and counter bookkeeping exactly (the pick counter
    lives in the shared object so internal and external picks share
    one aging sequence)."""

    AGING_PERIOD = 8

    def __init__(self, machine: NativeMachine, policy: str = "stack",
                 seed: int = 0):
        if policy not in ("stack", "fifo", "random"):
            raise ValueError(f"unknown scheduling policy {policy!r}")
        if policy == "random":
            raise ValueError(
                "the native engine does not support the 'random' policy; "
                "use --engine compiled"
            )
        self.machine = machine
        self.policy = policy

    def run(self, max_transfers: int | None = None) -> RunResult:
        machine = self.machine
        machine._validate_externals()
        lib = machine._lib
        c = machine._counters()
        start_transfers, start_instructions = c[2], c[0]
        limit_abs = (-1 if max_transfers is None
                     else start_transfers + max_transfers)
        policy_int = 0 if self.policy == "stack" else 1

        def result(reason: str) -> RunResult:
            c = machine._counters()
            return RunResult(reason, c[2] - start_transfers,
                             c[0] - start_instructions)

        while True:
            machine._refresh_ext_flags()
            rc = lib.esp_run_quantum(limit_abs, policy_int)
            machine._drain_events()
            if rc == 1:
                return result("done")
            if rc == 2:
                return result("limit")
            if rc == 3:
                raise machine._error_from_site()
            if rc == 0:
                return result("idle")
            # rc == 6: external move potential — settle it host-side.
            moves = machine._external_moves()
            if not moves:
                return result("idle")
            if (max_transfers is not None
                    and machine._counter(2) - start_transfers >= max_transfers):
                return result("limit")
            picks = lib.esp_get_picks() + 1
            lib.esp_set_picks(picks)
            if self.policy == "stack":
                move = moves[0] if picks % self.AGING_PERIOD == 0 else moves[-1]
            else:
                move = moves[0]
            machine._apply_external(move)
