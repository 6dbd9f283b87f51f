"""Transactional memory: object type, sentinels, transaction parsing.

The TM object type (Section 4.1) has four operations:

* ``start()`` → ``OK`` or ``ABORTED``;
* ``read(x)`` → a value or ``ABORTED``;
* ``write(x, v)`` → ``OK`` or ``ABORTED``;
* ``tryC()`` → ``COMMITTED`` or ``ABORTED``.

A transaction of process ``p_i`` is the span of events from a ``start``
invocation until the transaction completes: a ``COMMITTED`` response to
``tryC``, an ``ABORTED`` response to any call, or the process's crash.
The *good* responses (the ones constituting progress for TM liveness,
per Section 4.1: requiring responses is trivially satisfiable by
aborting everything) are exactly the ``COMMITTED`` responses, and
progress is of the ``REPEATED`` kind.

This module provides the sentinels, the type factory, and the parser
turning raw histories into :class:`Transaction` records — the common
input of the opacity, strict-serializability and Section-5.3 checkers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.events import Invocation, Response, is_crash, is_invocation, is_response
from repro.core.history import History
from repro.core.object_type import ObjectType, OperationSignature, ProgressMode
from repro.util.errors import IllFormedHistoryError


class _Sentinel:
    """A unique, self-describing response marker."""

    __slots__ = ("_label",)

    def __init__(self, label: str):
        self._label = label

    def __repr__(self) -> str:
        return self._label

    def __deepcopy__(self, memo):  # sentinels are singletons
        return self

    def __copy__(self):
        return self

    def __reduce__(self):
        # Unpickling must yield the singleton, not a twin: histories
        # containing sentinels cross process boundaries in the battery
        # and service process pools, and equality is identity.
        return (_sentinel_by_label, (self._label,))


_SENTINEL_REGISTRY: dict = {}


def _sentinel_by_label(label: str) -> "_Sentinel":
    return _SENTINEL_REGISTRY[label]


#: Successful non-committing response (start / write acknowledged).
OK = _SENTINEL_REGISTRY["OK"] = _Sentinel("OK")
#: Commit event ``C``.
COMMITTED = _SENTINEL_REGISTRY["C"] = _Sentinel("C")
#: Abort event ``A``.
ABORTED = _SENTINEL_REGISTRY["A"] = _Sentinel("A")

#: Transaction status labels.
STATUS_COMMITTED = "committed"
STATUS_ABORTED = "aborted"
STATUS_COMMIT_PENDING = "commit-pending"
STATUS_LIVE = "live"

TM_OPERATIONS = ("start", "read", "write", "tryC")


def tm_object_type(
    variables: Sequence[int] = (0,),
    values: Sequence[Any] = (0, 1),
) -> ObjectType:
    """Build the TM object type.

    ``variables`` and ``values`` populate the finite argument/response
    domains used by exhaustive tools; the simulator itself does not
    restrict them.
    """
    variables = tuple(variables)
    values = tuple(values)
    return ObjectType(
        name="tm",
        operations=(
            OperationSignature(
                name="start", argument_domains=(), response_domain=(OK, ABORTED)
            ),
            OperationSignature(
                name="read",
                argument_domains=(variables,),
                response_domain=values + (ABORTED,),
            ),
            OperationSignature(
                name="write",
                argument_domains=(variables, values),
                response_domain=(OK, ABORTED),
            ),
            OperationSignature(
                name="tryC", argument_domains=(), response_domain=(COMMITTED, ABORTED)
            ),
        ),
        sequential_spec=None,  # TM safety is transaction-level; see opacity.py
        good_response=lambda response: response.value is COMMITTED,
        progress_mode=ProgressMode.REPEATED,
    )


@dataclass
class TransactionCall:
    """One call inside a transaction."""

    operation: str
    args: Tuple[Any, ...]
    value: Any  # response value, or None while pending
    invocation_index: int
    response_index: Optional[int]

    @property
    def pending(self) -> bool:
        return self.response_index is None


@dataclass
class Transaction:
    """A parsed transaction of one process.

    ``number`` is the 1-based index of the transaction within its
    process's projection (the paper's "t-th transaction in ``h|p_i``").
    """

    process: int
    number: int
    calls: List[TransactionCall] = field(default_factory=list)
    status: str = STATUS_LIVE
    start_index: int = -1
    end_index: Optional[int] = None

    @property
    def committed(self) -> bool:
        return self.status == STATUS_COMMITTED

    @property
    def aborted(self) -> bool:
        return self.status == STATUS_ABORTED

    @property
    def completed(self) -> bool:
        return self.status in (STATUS_COMMITTED, STATUS_ABORTED)

    @property
    def start_response_index(self) -> Optional[int]:
        """Global index of the response to ``start`` (None if pending)."""
        for call in self.calls:
            if call.operation == "start":
                return call.response_index
        return None

    @property
    def tryc_invocation_index(self) -> Optional[int]:
        """Global index of the ``tryC`` invocation (None if absent)."""
        for call in self.calls:
            if call.operation == "tryC":
                return call.invocation_index
        return None

    def reads(self) -> List[Tuple[int, Any]]:
        """Completed, non-aborted reads as ``(variable, observed value)``,
        excluding reads that observe the transaction's own earlier
        writes (those are justified locally, not by the serialization)."""
        own: Dict[Any, Any] = {}
        out: List[Tuple[int, Any]] = []
        for call in self.calls:
            if call.operation == "write" and call.value is OK:
                own[call.args[0]] = call.args[1]
            elif (
                call.operation == "read"
                and call.response_index is not None
                and call.value is not ABORTED
            ):
                variable = call.args[0]
                if variable in own:
                    if call.value != own[variable]:
                        out.append((variable, call.value))  # own-write violation
                else:
                    out.append((variable, call.value))
        return out

    def own_write_violation(self) -> Optional[Tuple[int, Any, Any]]:
        """A read that contradicts the transaction's own prior write,
        as ``(variable, written, observed)`` — an unconditional safety
        violation no serialization can repair."""
        own: Dict[Any, Any] = {}
        for call in self.calls:
            if call.operation == "write" and call.value is OK:
                own[call.args[0]] = call.args[1]
            elif (
                call.operation == "read"
                and call.response_index is not None
                and call.value is not ABORTED
            ):
                variable = call.args[0]
                if variable in own and call.value != own[variable]:
                    return (variable, own[variable], call.value)
        return None

    def write_set(self) -> Dict[Any, Any]:
        """Final acknowledged write per variable."""
        writes: Dict[Any, Any] = {}
        for call in self.calls:
            if call.operation == "write" and call.value is OK:
                writes[call.args[0]] = call.args[1]
        return writes

    def precedes(self, other: "Transaction") -> bool:
        """Real-time precedence: this transaction completed before the
        other started."""
        return self.end_index is not None and self.end_index < other.start_index

    def concurrent_with(self, other: "Transaction") -> bool:
        """Neither transaction precedes the other."""
        return not self.precedes(other) and not other.precedes(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<T p{self.process}#{self.number} {self.status} "
            f"[{self.start_index}..{self.end_index}]>"
        )


def parse_transactions(history: History) -> List[Transaction]:
    """Parse a TM history into transactions, in start order.

    Raises :class:`IllFormedHistoryError` on TM-level protocol
    violations (a ``read`` outside any transaction, a call after the
    transaction committed, ...).  A crash leaves the process's open
    transaction uncompleted: like any other uncompleted transaction it
    ends up ``live`` — or ``commit-pending`` when the crash hit between
    the ``tryC`` invocation and its response, since the internal commit
    point may already have been reached (the completion rule must be
    allowed to commit it; found by the schedule fuzzer's crash
    injection).
    """
    current: Dict[int, Transaction] = {}
    counters: Dict[int, int] = {}
    transactions: List[Transaction] = []

    for index, event in enumerate(history):
        pid = event.process
        if is_crash(event):
            # Keep the open transaction in ``current``: well-formedness
            # guarantees no further events from this process, and the
            # end-of-history sweep below classifies it (live or
            # commit-pending) exactly like a transaction cut off by the
            # end of the prefix.
            continue
        if is_invocation(event):
            operation = event.operation
            if operation == "start":
                if pid in current:
                    raise IllFormedHistoryError(
                        f"p{pid} starts a transaction inside transaction "
                        f"#{current[pid].number}"
                    )
                counters[pid] = counters.get(pid, 0) + 1
                transaction = Transaction(
                    process=pid, number=counters[pid], start_index=index
                )
                current[pid] = transaction
                transactions.append(transaction)
            else:
                if pid not in current:
                    raise IllFormedHistoryError(
                        f"p{pid} invokes {operation} outside any transaction"
                    )
            if pid in current:
                current[pid].calls.append(
                    TransactionCall(
                        operation=operation,
                        args=event.args,
                        value=None,
                        invocation_index=index,
                        response_index=None,
                    )
                )
            continue
        if is_response(event):
            if pid not in current:
                raise IllFormedHistoryError(
                    f"response {event} for p{pid} outside any transaction"
                )
            transaction = current[pid]
            call = transaction.calls[-1]
            call.value = event.value
            call.response_index = index
            if event.value is ABORTED:
                transaction.status = STATUS_ABORTED
                transaction.end_index = index
                del current[pid]
            elif event.operation == "tryC":
                if event.value is not COMMITTED:
                    raise IllFormedHistoryError(
                        f"tryC returned {event.value!r}; expected C or A"
                    )
                transaction.status = STATUS_COMMITTED
                transaction.end_index = index
                del current[pid]

    for transaction in current.values():
        if (
            transaction.calls
            and transaction.calls[-1].operation == "tryC"
            and transaction.calls[-1].pending
        ):
            transaction.status = STATUS_COMMIT_PENDING

    transactions.sort(key=lambda t: t.start_index)
    return transactions


def committed_transactions(history: History) -> List[Transaction]:
    """Only the committed transactions, in start order."""
    return [t for t in parse_transactions(history) if t.committed]
