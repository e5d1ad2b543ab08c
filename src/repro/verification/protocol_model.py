"""Abstract protocol model used by the explicit-state model checker.

The paper verifies the C3D coherence protocol with the Murphi model checker,
"proving absence of deadlock and race conditions ... and that the
Single-Writer-Multiple-Reader (SWMR) invariant and SC per memory location are
not violated".  Murphi models are abstract restatements of the protocol, not
the simulator itself; this module plays the same role for the reproduction.

The model describes a single cache block in an ``n``-socket machine at the
same atomic-transaction granularity the simulator uses: each action (read,
write, LLC eviction, DRAM-cache eviction) runs to completion before the next
begins.  Data values are abstracted to FRESH/STALE -- after every write the
writer's copy is the unique FRESH copy; data movements propagate freshness --
so the reachable state space is finite and can be explored exhaustively by
:class:`~repro.verification.model_checker.ModelChecker`.

Two protocol variants are modelled:

* ``clean`` (C3D): dirty LLC victims are written through to memory and
  retained clean in the local DRAM cache; the directory does not track
  DRAM-cache-only copies, so writes to untracked blocks broadcast
  invalidations.
* ``dirty`` (full-dir-like): dirty LLC victims are absorbed by the DRAM
  cache without a memory write-back and the directory tracks everything.

A third, intentionally *incorrect* variant (``broken-no-broadcast``) keeps
the clean cache but omits the broadcast on writes to untracked blocks; the
test suite uses it to demonstrate that the checker actually catches
coherence violations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, Iterator, List, Optional, Tuple

__all__ = ["ProtocolVariant", "BlockState", "AbstractMachineState",
           "C3DAbstractModel", "InvariantViolation"]


class ProtocolVariant(enum.Enum):
    """Which protocol the abstract model follows."""

    CLEAN = "clean"                      # C3D
    CLEAN_FULL_DIR = "clean-full-dir"    # C3D + idealised full directory
    DIRTY_FULL_DIR = "dirty-full-dir"    # the naive inclusive-directory design
    BROKEN_NO_BROADCAST = "broken-no-broadcast"  # deliberately incoherent


class BlockState(enum.Enum):
    """MSI state of the block in a socket's LLC."""

    I = "I"  # noqa: E741 - single-letter states mirror the paper
    S = "S"
    M = "M"


@dataclass(frozen=True)
class SocketState:
    """Per-socket portion of the abstract machine state."""

    llc: BlockState = BlockState.I
    llc_fresh: bool = False
    dram_valid: bool = False
    dram_fresh: bool = False
    dram_dirty: bool = False


@dataclass(frozen=True)
class DirectoryAbstractState:
    """Global directory entry for the single modelled block."""

    state: BlockState = BlockState.I
    owner: Optional[int] = None
    sharers: FrozenSet[int] = frozenset()


@dataclass(frozen=True)
class AbstractMachineState:
    """Complete abstract machine state (hashable, used as a graph node)."""

    sockets: Tuple[SocketState, ...]
    directory: DirectoryAbstractState
    memory_fresh: bool = True

    @classmethod
    def initial(cls, num_sockets: int) -> "AbstractMachineState":
        return cls(
            sockets=tuple(SocketState() for _ in range(num_sockets)),
            directory=DirectoryAbstractState(),
            memory_fresh=True,
        )

    def replace_socket(self, index: int, socket: SocketState) -> "AbstractMachineState":
        sockets = list(self.sockets)
        sockets[index] = socket
        return AbstractMachineState(tuple(sockets), self.directory, self.memory_fresh)


@dataclass(frozen=True)
class InvariantViolation:
    """A violated invariant plus the action that exposed it."""

    invariant: str
    action: str
    detail: str


class C3DAbstractModel:
    """Enabled-action semantics of the abstract protocol.

    The model checker drives this object; it is purely functional (methods
    take a state and return successor states) so states can be shared and
    hashed freely.
    """

    def __init__(self, num_sockets: int = 2,
                 variant: ProtocolVariant = ProtocolVariant.CLEAN) -> None:
        if num_sockets < 1:
            raise ValueError("num_sockets must be >= 1")
        self.num_sockets = num_sockets
        self.variant = variant

    # ------------------------------------------------------------------
    # Action enumeration
    # ------------------------------------------------------------------

    def initial_state(self) -> AbstractMachineState:
        return AbstractMachineState.initial(self.num_sockets)

    def actions(self, state: AbstractMachineState) -> Iterator[Tuple[str, AbstractMachineState]]:
        """Yield ``(action_name, successor_state)`` for every enabled action."""
        for socket_id in range(self.num_sockets):
            yield f"read[{socket_id}]", self.read(state, socket_id)
            yield f"write[{socket_id}]", self.write(state, socket_id)
            if state.sockets[socket_id].llc is not BlockState.I:
                yield f"llc_evict[{socket_id}]", self.llc_evict(state, socket_id)
            if state.sockets[socket_id].dram_valid:
                yield f"dram_evict[{socket_id}]", self.dram_evict(state, socket_id)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    def check_invariants(self, state: AbstractMachineState, action: str) -> List[InvariantViolation]:
        """Structural invariants that must hold in every reachable state."""
        violations: List[InvariantViolation] = []

        modified = [i for i, s in enumerate(state.sockets) if s.llc is BlockState.M]
        valid_onchip = [i for i, s in enumerate(state.sockets) if s.llc is not BlockState.I]
        if len(modified) > 1:
            violations.append(InvariantViolation("SWMR", action, f"multiple M holders {modified}"))
        if modified and len(valid_onchip) > 1:
            violations.append(
                InvariantViolation(
                    "SWMR", action,
                    f"M holder {modified} coexists with on-chip copies {valid_onchip}",
                )
            )

        clean_variants = (
            ProtocolVariant.CLEAN,
            ProtocolVariant.CLEAN_FULL_DIR,
            ProtocolVariant.BROKEN_NO_BROADCAST,
        )
        if self.variant in clean_variants:
            for i, s in enumerate(state.sockets):
                if s.dram_dirty:
                    violations.append(
                        InvariantViolation("clean-dram-cache", action, f"socket {i} holds dirty DRAM line")
                    )

        if not modified and not any(s.dram_dirty for s in state.sockets):
            if not state.memory_fresh:
                violations.append(
                    InvariantViolation(
                        "memory-currency", action,
                        "memory is stale although no modified/dirty copy exists",
                    )
                )

        if state.directory.state is BlockState.M:
            owner = state.directory.owner
            ok = owner is not None and (
                state.sockets[owner].llc is BlockState.M
                or (self.variant is ProtocolVariant.DIRTY_FULL_DIR and state.sockets[owner].dram_dirty)
            )
            if not ok:
                violations.append(
                    InvariantViolation(
                        "directory-owner", action,
                        f"directory M entry points at socket {owner} without a modified copy",
                    )
                )
        return violations

    def check_read_value(self, state: AbstractMachineState, socket_id: int,
                         source_fresh: bool, action: str) -> List[InvariantViolation]:
        """Per-location SC (data-value invariant): every read returns FRESH data."""
        if source_fresh:
            return []
        return [
            InvariantViolation(
                "data-value", action,
                f"read at socket {socket_id} observed STALE data",
            )
        ]

    # ------------------------------------------------------------------
    # Action semantics
    # ------------------------------------------------------------------

    def _invalidate_socket(self, socket: SocketState) -> SocketState:
        return SocketState()

    def read(self, state: AbstractMachineState, requester: int) -> AbstractMachineState:
        sock = state.sockets[requester]
        directory = state.directory

        # On-chip hit.
        if sock.llc is not BlockState.I:
            self._last_read_fresh = sock.llc_fresh
            return state
        # Local DRAM-cache hit.
        if sock.dram_valid:
            self._last_read_fresh = sock.dram_fresh
            new_sock = SocketState(
                llc=BlockState.S, llc_fresh=sock.dram_fresh,
                dram_valid=True, dram_fresh=sock.dram_fresh, dram_dirty=sock.dram_dirty,
            )
            state = state.replace_socket(requester, new_sock)
            if self.variant in (ProtocolVariant.CLEAN_FULL_DIR, ProtocolVariant.DIRTY_FULL_DIR):
                directory = self._dir_add_sharer(state.directory, requester)
                state = AbstractMachineState(state.sockets, directory, state.memory_fresh)
            return state

        # Global GetS.
        sockets = list(state.sockets)
        memory_fresh = state.memory_fresh
        if directory.state is BlockState.M and directory.owner is not None \
                and directory.owner != requester:
            owner = directory.owner
            owner_state = sockets[owner]
            if owner_state.llc is BlockState.M:
                data_fresh = owner_state.llc_fresh
                # Owner downgrades; dirty data written through to memory.
                sockets[owner] = SocketState(
                    llc=BlockState.S, llc_fresh=owner_state.llc_fresh,
                    dram_valid=owner_state.dram_valid, dram_fresh=owner_state.dram_fresh,
                    dram_dirty=False if self._is_clean() else owner_state.dram_dirty,
                )
                memory_fresh = data_fresh
            else:
                # Dirty copy lives in the owner's DRAM cache (dirty designs only).
                data_fresh = owner_state.dram_fresh
                sockets[owner] = SocketState(
                    llc=owner_state.llc, llc_fresh=owner_state.llc_fresh,
                    dram_valid=owner_state.dram_valid, dram_fresh=owner_state.dram_fresh,
                    dram_dirty=False,
                )
                memory_fresh = data_fresh
            directory = DirectoryAbstractState(
                BlockState.S, None, frozenset({owner, requester})
            )
        else:
            data_fresh = memory_fresh
            if directory.state is BlockState.S or self.variant in (
                ProtocolVariant.CLEAN_FULL_DIR, ProtocolVariant.DIRTY_FULL_DIR
            ):
                directory = self._dir_add_sharer(directory, requester)
            # Plain C3D: GetS in Invalid stays untracked.

        requester_state = sockets[requester]
        sockets[requester] = SocketState(
            llc=BlockState.S, llc_fresh=data_fresh,
            dram_valid=requester_state.dram_valid,
            dram_fresh=requester_state.dram_fresh,
            dram_dirty=requester_state.dram_dirty,
        )
        self._last_read_fresh = data_fresh
        return AbstractMachineState(tuple(sockets), directory, memory_fresh)

    def write(self, state: AbstractMachineState, requester: int) -> AbstractMachineState:
        sockets = list(state.sockets)
        directory = state.directory
        memory_fresh = state.memory_fresh
        sock = sockets[requester]

        if sock.llc is BlockState.M:
            # Write hit with Modified permission; the new value supersedes all,
            # including any older dirty copy in the local DRAM cache (its
            # dirty bit is dropped -- the LLC copy will be written back).
            sockets[requester] = SocketState(
                llc=BlockState.M, llc_fresh=True,
                dram_valid=sock.dram_valid, dram_fresh=False, dram_dirty=False,
            )
            return self._after_write(sockets, directory, requester)

        if directory.state is BlockState.M and directory.owner is not None \
                and directory.owner != requester:
            sockets[directory.owner] = self._invalidate_socket(sockets[directory.owner])
        elif directory.state is BlockState.S:
            for target in directory.sharers:
                if target != requester:
                    sockets[target] = self._invalidate_socket(sockets[target])
        else:
            # Untracked (Invalid) block: C3D must broadcast; the broken
            # variant (and nothing else) skips it.
            if self.variant is not ProtocolVariant.BROKEN_NO_BROADCAST:
                for target in range(self.num_sockets):
                    if target != requester:
                        sockets[target] = self._invalidate_socket(sockets[target])

        sock = sockets[requester]
        sockets[requester] = SocketState(
            llc=BlockState.M, llc_fresh=True,
            dram_valid=sock.dram_valid, dram_fresh=False, dram_dirty=False,
        )
        return self._after_write(sockets, directory, requester)

    def _after_write(self, sockets: List[SocketState], directory: DirectoryAbstractState,
                     requester: int) -> AbstractMachineState:
        new_sockets: List[SocketState] = []
        for i, s in enumerate(sockets):
            if i == requester:
                new_sockets.append(s)
            else:
                # Any surviving copy elsewhere is now stale data.
                new_sockets.append(
                    SocketState(
                        llc=s.llc, llc_fresh=False,
                        dram_valid=s.dram_valid, dram_fresh=False, dram_dirty=s.dram_dirty,
                    )
                )
        directory = DirectoryAbstractState(BlockState.M, requester, frozenset({requester}))
        return AbstractMachineState(tuple(new_sockets), directory, memory_fresh=False)

    def llc_evict(self, state: AbstractMachineState, socket_id: int) -> AbstractMachineState:
        sock = state.sockets[socket_id]
        directory = state.directory
        memory_fresh = state.memory_fresh
        if sock.llc is BlockState.I:
            return state

        dram_valid, dram_fresh, dram_dirty = sock.dram_valid, sock.dram_fresh, sock.dram_dirty
        if self._has_dram_cache():
            dram_valid = True
            dram_fresh = sock.llc_fresh
            # A clean victim inserted over an already-dirty DRAM line must not
            # clear the dirty bit (mirrors DRAMCache.insert's dirty |= ...).
            dram_dirty = sock.dram_dirty or (
                (sock.llc is BlockState.M) and not self._is_clean()
            )

        if sock.llc is BlockState.M:
            if self._is_clean():
                memory_fresh = sock.llc_fresh
            if self.variant is ProtocolVariant.CLEAN_FULL_DIR:
                directory = DirectoryAbstractState(
                    BlockState.S, None, frozenset({socket_id})
                )
            elif self.variant is ProtocolVariant.DIRTY_FULL_DIR:
                directory = directory  # stays Modified at this socket (dirty DRAM copy)
            else:
                directory = DirectoryAbstractState()

        new_sock = SocketState(
            llc=BlockState.I, llc_fresh=False,
            dram_valid=dram_valid, dram_fresh=dram_fresh, dram_dirty=dram_dirty,
        )
        return AbstractMachineState(
            tuple(
                new_sock if i == socket_id else s for i, s in enumerate(state.sockets)
            ),
            directory,
            memory_fresh,
        )

    def dram_evict(self, state: AbstractMachineState, socket_id: int) -> AbstractMachineState:
        sock = state.sockets[socket_id]
        if not sock.dram_valid:
            return state
        memory_fresh = state.memory_fresh
        directory = state.directory
        if sock.dram_dirty:
            memory_fresh = sock.dram_fresh
            if directory.state is BlockState.M and directory.owner == socket_id:
                if sock.llc is BlockState.I:
                    directory = DirectoryAbstractState()
                elif sock.llc is BlockState.S:
                    # The socket still holds a clean, current on-chip copy:
                    # the write-back downgrades the entry to Shared.
                    directory = DirectoryAbstractState(
                        BlockState.S, None, frozenset({socket_id})
                    )
                # If the LLC holds the block Modified, the DRAM copy being
                # written back is an older value; the entry stays Modified.
        new_sock = SocketState(
            llc=sock.llc, llc_fresh=sock.llc_fresh,
            dram_valid=False, dram_fresh=False, dram_dirty=False,
        )
        return AbstractMachineState(
            tuple(
                new_sock if i == socket_id else s for i, s in enumerate(state.sockets)
            ),
            directory,
            memory_fresh,
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _is_clean(self) -> bool:
        return self.variant in (
            ProtocolVariant.CLEAN,
            ProtocolVariant.CLEAN_FULL_DIR,
            ProtocolVariant.BROKEN_NO_BROADCAST,
        )

    def _has_dram_cache(self) -> bool:
        return True

    @staticmethod
    def _dir_add_sharer(directory: DirectoryAbstractState, socket_id: int) -> DirectoryAbstractState:
        if directory.state is BlockState.M:
            return directory
        return DirectoryAbstractState(
            BlockState.S, None, frozenset(set(directory.sharers) | {socket_id})
        )

    # The freshness of the data returned by the most recent read() call;
    # consumed by the model checker to evaluate the data-value invariant.
    _last_read_fresh: bool = True

    def last_read_was_fresh(self) -> bool:
        return self._last_read_fresh
