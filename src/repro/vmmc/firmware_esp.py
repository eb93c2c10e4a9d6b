'''vmmcESP: the VMMC firmware written in ESP (§4.6).

``VMMC_ESP_SOURCE`` is the firmware itself — real ESP source, compiled
by the real ESP frontend and executed by the real ESP interpreter on
the simulated NIC.  Structure mirrors the paper's description:
processes and channels carry all the complex state-machine
interactions, while "simple tasks like initiating DMA, packet
marshalling and unmarshalling" live in the host-language helpers
(:class:`VMMCEspFirmware`), exactly the division of labour of §4.6.

Processes (the paper's implementation used 7 processes / 17 channels;
ours uses 6 / 13 — we do not model the redirection feature either):

* ``pageTable``   — virtual→physical translation, with UpdateReq
  dispatching straight to it via pattern matching on ``hostReqC``;
* ``sm1``         — send-request processing: per-page translate,
  fetch-DMA, hand chunks to the sender (the Appendix B process);
* ``sender``      — sliding-window transmission with piggyback acks;
  incoming ACK packets dispatch directly to it via the ``ack`` union
  pattern on ``netInC``;
* ``receiver``    — incoming data: store-DMA, ack generation;
* ``acker``       — explicit-acknowledgement generation;
* ``completer``   — arrival notification when a message's last chunk
  is stored.

Memory management follows §4.4 exactly: ``sm1`` allocates a buffer
object per chunk, the sender ``unlink``s it after the packet leaves
(the paper's ``unlink(sendData)``), and every path is verifiable by
:func:`repro.verify.verify_process`.
'''

from __future__ import annotations

from repro.api import compile_source
from repro.ir.nodes import IRProgram
from repro.runtime.external import CallbackReader, QueueWriter
from repro.runtime.machine import create_machine
from repro.runtime.scheduler import create_scheduler
from repro.sim.nic import FirmwareAction, FirmwareBase, FirmwareInput
from repro.sim.timing import CostModel, CycleCounter
from repro.vmmc.packets import ACK, DATA, ack_packet, data_packet

VMMC_ESP_SOURCE = """
// VMMC firmware in ESP — see repro.vmmc.firmware_esp for the C-helper
// side (DMA initiation, packet marshalling, notification).

type dataT = array of int
type sendT = record of { dest: int, vAddr: int, size: int }
type updateT = record of { vAddr: int, pAddr: int }
type reqT = union of { send: sendT, update: updateT }

type chunkT = record of { dest: int, nbytes: int, msgid: int, last: int, buf: dataT }
type dataPktT = record of { seq: int, ack: int, nbytes: int, msgid: int, last: int }
type outDataT = record of { dest: int, seq: int, ack: int, nbytes: int,
                            msgid: int, last: int, buf: dataT }
type inPktT = union of { data: dataPktT, ack: int }
type outPktT = union of { data: outDataT, ack: int }
type storeT = record of { nbytes: int, last: int, msgid: int }
type doneT = record of { last: int, msgid: int, nbytes: int }

const WINDOW = 8;
const SMALL = 32;
const PAGE = 4096;
const ACK_EVERY = 2;
const BUF_WORDS = 4;

channel hostReqC: reqT
channel ptReqC: record of { ret: int, vAddr: int }
channel ptReplyC: record of { ret: int, pAddr: int }
channel fetchC: record of { pAddr: int, nbytes: int }
channel fetchDoneC: int
channel chunkC: chunkT
channel netOutC: outPktT
channel netInC: inPktT
channel pigAckC: int
channel seenSeqC: int
channel explAckC: int
channel storeC: storeT
channel storeDoneC: doneT
channel notifyC: record of { msgid: int, nbytes: int }

external interface hostReq(out hostReqC) {
    Send({ send |> { $dest, $vAddr, $size }}),
    Update({ update |> { $vAddr, $pAddr }})
};
external interface fetch(in fetchC) { StartFetch($pAddr, $nbytes) };
external interface fetchDone(out fetchDoneC) { FetchDone($tag) };
external interface netOut(in netOutC) {
    Data({ data |> { $dest, $seq, $ack, $nbytes, $msgid, $last, $buf }}),
    Ack({ ack |> $ackno })
};
external interface netIn(out netInC) {
    Data({ data |> { $seq, $ack, $nbytes, $msgid, $last }}),
    Ack({ ack |> $ackno })
};
external interface store(in storeC) { Store($nbytes, $last, $msgid) };
external interface storeDone(out storeDoneC) { StoreDone($last, $msgid, $nbytes) };
external interface notify(in notifyC) { Notify($msgid, $nbytes) };

// Virtual-to-physical translation; UpdateReq requests dispatch here
// directly by pattern matching on the shared hostReqC channel (§4.2).
process pageTable {
    $table: #array of int = #{ 64 -> 0, ... };
    while {
        alt {
            case( in( ptReqC, { $ret, $vAddr })) {
                out( ptReplyC, { ret, table[(vAddr / PAGE) % 64] + vAddr % PAGE });
            }
            case( in( hostReqC, { update |> { $vAddr, $pAddr }})) {
                table[(vAddr / PAGE) % 64] = pAddr;
            }
        }
    }
}

// Send-request processing: the Appendix B SM1, with per-page chunking.
process sm1 {
    $msgid = 0;
    while {
        in( hostReqC, { send |> { $dest, $vAddr, $size }});
        msgid = msgid + 1;
        if (size <= SMALL) {
            // Small messages are inlined in the descriptor: no fetch.
            $ibuf: dataT = { BUF_WORDS -> 0 };
            out( chunkC, { dest, size, msgid, 1, ibuf });
            unlink( ibuf);
        } else {
            $off = 0;
            while (off < size) {
                $chunk = size - off;
                if (chunk > PAGE) { chunk = PAGE; }
                out( ptReqC, { @, vAddr + off });
                in( ptReplyC, { @, $pAddr });
                out( fetchC, { pAddr, chunk });
                in( fetchDoneC, $tag);
                $buf: dataT = { BUF_WORDS -> 0 };
                $last = 0;
                if (off + chunk >= size) { last = 1; }
                out( chunkC, { dest, chunk, msgid, last, buf });
                unlink( buf);
                off = off + chunk;
            }
        }
    }
}

// Sliding-window transmission; ACK packets dispatch here directly via
// the `ack` pattern on netInC (§4.2's port mechanism).
process sender {
    $nextSeq = 0;
    $acked = -1;
    $pig = -1;
    while {
        alt {
            case( nextSeq - acked - 1 < WINDOW,
                  in( chunkC, { $dest, $nbytes, $msgid, $last, $buf })) {
                out( netOutC, { data |> { dest, nextSeq, pig, nbytes,
                                          msgid, last, buf }});
                unlink( buf);
                nextSeq = nextSeq + 1;
            }
            case( in( netInC, { ack |> $ackno })) {
                if (ackno > acked) { acked = ackno; }
            }
            case( in( pigAckC, $p)) {
                if (p > acked) { acked = p; }
            }
            case( in( seenSeqC, $s)) {
                if (s > pig) { pig = s; }
            }
        }
    }
}

// Incoming data: forward the piggybacked ack, start the store DMA,
// and generate acknowledgements.
process receiver {
    $unacked = 0;
    $lastSeq = -1;
    while {
        in( netInC, { data |> { $seq, $ack, $nbytes, $msgid, $last }});
        out( pigAckC, ack);
        if (seq > lastSeq) { lastSeq = seq; }
        out( seenSeqC, lastSeq);
        out( storeC, { nbytes, last, msgid });
        unacked = unacked + 1;
        if (last == 1 || unacked >= ACK_EVERY) {
            out( explAckC, lastSeq);
            unacked = 0;
        }
    }
}

// Explicit acknowledgements when there is no reverse data to piggyback.
process acker {
    while {
        in( explAckC, $ackno);
        out( netOutC, { ack |> ackno });
    }
}

// Arrival notification once the last chunk of a message is in memory.
process completer {
    while {
        in( storeDoneC, { $last, $msgid, $nbytes });
        if (last == 1) {
            out( notifyC, { msgid, nbytes });
        }
    }
}
"""

_PROGRAM_CACHE: IRProgram | None = None


def compile_vmmc_esp() -> IRProgram:
    """Compile (and cache) the VMMC ESP firmware."""
    global _PROGRAM_CACHE
    if _PROGRAM_CACHE is None:
        _PROGRAM_CACHE = compile_source(VMMC_ESP_SOURCE, filename="vmmc.esp")
    return _PROGRAM_CACHE


class EspMachineFirmware(FirmwareBase):
    """Base class for firmware that runs ESP through the interpreter.

    Subclasses build their external-channel bridges, call
    :meth:`_attach_machine`, and implement :meth:`_post` (device event
    → external channel) — the host-language half of §4.6.  ``step``
    runs the interpreter to quiescence and charges cycles from real
    interpreter operation counts (instructions, context switches,
    transfers, allocations, refcounts) times the cost-model weights.
    """

    def __init__(self, cost: CostModel, node_id: int):
        self.cost = cost
        self.node_id = node_id
        self.counter = CycleCounter()
        self._actions: list[FirmwareAction] = []

    def _attach_machine(self, program: IRProgram, externals: dict,
                        engine: str | None = None) -> None:
        self.machine = create_machine(program, externals=externals,
                                      engine=engine)
        self.scheduler = create_scheduler(self.machine, policy="stack")
        self._baseline_counts = self._counts()

    def _post(self, inp: FirmwareInput) -> None:
        raise NotImplementedError

    def step(self, inputs: list[FirmwareInput]):
        self._actions = []
        for inp in inputs:
            self._post(inp)
        self.scheduler.run()
        cycles = self._charge_cycles()
        self._after_step()
        return cycles, self._actions

    def _after_step(self) -> None:
        """Hook for post-quantum work (e.g. timer management)."""

    def _counts(self) -> tuple:
        c = self.machine.counters
        h = self.machine.heap.counters
        return (
            c.instructions, c.context_switches, c.transfers, c.idle_polls,
            h.allocations, h.frees, h.links, h.unlinks,
        )

    def _charge_cycles(self) -> float:
        now = self._counts()
        delta = [n - b for n, b in zip(now, self._baseline_counts)]
        self._baseline_counts = now
        instructions, switches, transfers, polls, allocs, frees, links, unlinks = delta
        cost = self.cost
        cycles = (
            instructions * cost.cycles_per_instruction
            + switches * cost.cycles_context_switch
            + transfers * cost.cycles_transfer
            + polls * cost.cycles_idle_poll
            + allocs * cost.cycles_alloc
            + frees * cost.cycles_free
            + (links + unlinks) * cost.cycles_refcount
        )
        self.counter.charge(cycles, "esp")
        return cycles


class VMMCEspFirmware(EspMachineFirmware):
    """The NIC adapter: runs the ESP firmware through the interpreter
    and charges cycles from real interpreter operation counts.

    The helper code here plays the role of the paper's ~3000 lines of
    C: feeding device events into external channels, turning external
    ``out``s into DMA/wire/notify actions, and marshalling packets.
    """

    def __init__(self, cost: CostModel, node_id: int):
        super().__init__(cost, node_id)
        self.name = "vmmcESP"
        self.host_req = QueueWriter(["Send", "Update"])
        self.fetch_done = QueueWriter(["FetchDone"])
        self.store_done = QueueWriter(["StoreDone"])
        self.net_in = QueueWriter(["Data", "Ack"])
        self._attach_machine(compile_vmmc_esp(), {
            "hostReqC": self.host_req,
            "fetchDoneC": self.fetch_done,
            "storeDoneC": self.store_done,
            "netInC": self.net_in,
            "fetchC": CallbackReader(["StartFetch"], self._on_fetch),
            "netOutC": CallbackReader(["Data", "Ack"], self._on_net_out),
            "storeC": CallbackReader(["Store"], self._on_store),
            "notifyC": CallbackReader(["Notify"], self._on_notify),
        })

    # -- host-language helpers (the "C side" of §4.6) -----------------------------

    def _on_fetch(self, _entry: str, args: tuple) -> None:
        _paddr, nbytes = args
        self._actions.append(
            FirmwareAction("host_dma", nbytes=nbytes, tag=("fetch",))
        )

    def _on_store(self, _entry: str, args: tuple) -> None:
        nbytes, last, msgid = args
        self._actions.append(
            FirmwareAction(
                "host_dma", nbytes=max(nbytes, 1),
                tag=("store", last, msgid, nbytes),
            )
        )

    def _on_net_out(self, entry: str, args: tuple) -> None:
        peer = 1 - self.node_id
        if entry == "Data":
            dest, seq, ack, nbytes, msgid, last, _buf = args
            pkt = data_packet(self.node_id, dest, seq, ack, nbytes, msgid,
                              bool(last))
            self._actions.append(
                FirmwareAction("net_send", payload=pkt, nbytes=nbytes)
            )
        else:
            (ackno,) = args
            self._actions.append(
                FirmwareAction("net_send",
                               payload=ack_packet(self.node_id, peer, ackno),
                               nbytes=0)
            )

    def _on_notify(self, _entry: str, args: tuple) -> None:
        msgid, nbytes = args
        self._actions.append(
            FirmwareAction("notify", payload={"msg_id": msgid, "nbytes": nbytes})
        )

    # -- FirmwareBase ---------------------------------------------------------------

    def _post(self, inp: FirmwareInput) -> None:
        if inp.kind == "host_req":
            req = inp.payload
            if req["kind"] == "send":
                self.host_req.post("Send", req["dest"], req["vaddr"], req["size"])
            else:
                self.host_req.post("Update", req["vaddr"], req["paddr"])
        elif inp.kind == "host_dma_done":
            tag = inp.payload
            if tag[0] == "fetch":
                self.fetch_done.post("FetchDone", 0)
            else:
                _kind, last, msgid, nbytes = tag
                self.store_done.post("StoreDone", int(last), msgid, nbytes)
        elif inp.kind == "packet":
            pkt = inp.payload
            if pkt["type"] == DATA:
                self.net_in.post(
                    "Data", pkt["seq"], pkt["ack"], pkt["nbytes"],
                    pkt["msg_id"], int(pkt["last"]),
                )
            else:
                self.net_in.post("Ack", pkt["ack"])
