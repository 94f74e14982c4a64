"""The value types keep the contract of frozen records: pickle and copy
round trips, equality only within a class, no assignment to a field (but
for the report that ``verify_range`` fills) and a ``Name(field=value)``
repr, pinned from the dataclass implementation."""

import copy
import pickle

import pytest

from revtour import (
    CensusRecord,
    ComoduleFamily,
    EnumSpec,
    PairFamily,
    Pairing,
    QuasiPairing,
    TheoremInstance,
    Tournament,
    VerificationReport,
)
from revtour.theorems import Check

QUASI = (5, ((0, 2), (0, 4), (1, 3)))
INSTANCE = (5, QuasiPairing(*QUASI), True, False, {"c1": True}, True, "theorem3")
INSTANCE_TEXT = (
    "TheoremInstance(n=5, family=QuasiPairing(n=5, pairs=((0, 2), (0, 4), (1, 3))), "
    "lhs=True, rhs=False, details={'c1': True}, in_hypothesis=True, label='theorem3')"
)

# (class, its fields in order, the repr of the record built from them)
RECORDS = [
    (Tournament, (3, 5), "Tournament(n=3, bits=5)"),
    (ComoduleFamily, (4, ((0,), (1, 2))), "ComoduleFamily(n=4, members=((0,), (1, 2)))"),
    (EnumSpec, (6, "pairing", "irreducible-only", False),
     "EnumSpec(n=6, kind='pairing', filter='irreducible-only', include_empty=False)"),
    (CensusRecord, (Pairing(4, ((0, 1), (2, 3))), Tournament(4, 33), True, False, 0),
     "CensusRecord(family=Pairing(n=4, pairs=((0, 1), (2, 3))), "
     "tournament=Tournament(n=4, bits=33), indecomposable=True, irreducible=False, class_id=0)"),
    (PairFamily, (4, ((0, 1), (1, 2))), "PairFamily(n=4, pairs=((0, 1), (1, 2)))"),
    (Pairing, (4, ((0, 1), (2, 3))), "Pairing(n=4, pairs=((0, 1), (2, 3)))"),
    (QuasiPairing, QUASI, "QuasiPairing(n=5, pairs=((0, 2), (0, 4), (1, 3)))"),
    (TheoremInstance, INSTANCE, INSTANCE_TEXT),
    (VerificationReport, (3, 5, 6, 7, [TheoremInstance(*INSTANCE)], [], 1.5),
     f"VerificationReport(theorem=3, n_min=5, n_max=6, checked=7, violations=[{INSTANCE_TEXT}], "
     "recorded=[], ms=1.5)"),
    (Check, (1, "theorem1", "pairing", bool, divmod, dict, 5, 0),
     "Check(run=1, label='theorem1', kind='pairing', applies=<class 'bool'>, "
     "sides=<built-in function divmod>, details=<class 'dict'>, one_way_at=5, least_n=0)"),
]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, fields, text):
    record = cls(*fields)
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record)):
        assert type(twin) is cls and twin == record
    assert record != fields and fields != record and record == cls(*fields)
    assert repr(record) == text
    if cls is VerificationReport:
        record.checked += 1
        assert record.checked == 8
    else:
        with pytest.raises(AttributeError):
            setattr(record, next(iter(vars(record))), fields[0])

