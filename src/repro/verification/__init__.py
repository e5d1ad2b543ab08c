"""Protocol verification: abstract model + explicit-state model checker."""

from .model_checker import CheckResult, ModelChecker, check_protocol
from .protocol_model import (
    AbstractMachineState,
    BlockState,
    C3DAbstractModel,
    DirectoryAbstractState,
    InvariantViolation,
    ProtocolVariant,
    SocketState,
)

__all__ = [
    "C3DAbstractModel",
    "AbstractMachineState",
    "SocketState",
    "DirectoryAbstractState",
    "BlockState",
    "ProtocolVariant",
    "InvariantViolation",
    "ModelChecker",
    "CheckResult",
    "check_protocol",
]
