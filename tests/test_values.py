"""The value classes on the frozen base of ckinv.groups: each keeps the
repr, equality, hashing, immutability, construction, pickling and
copying that it had as a frozen dataclass."""

import copy
import pickle

import pytest

from ckinv import ck, intmat
from ckinv.groups import FgAbGroup, Z
from ckinv.realize import RealizationTarget


def _check_value(obj, same, other, text, hashable=True, by_value=True):
    # obj == same != other, all of one class; text is the dataclass repr;
    # by_value: the fields compare by value, so a pickle or deep copy of
    # obj equals it
    assert repr(obj) == text
    assert obj == same and not obj != same and obj is not same
    assert obj != other and not obj == other
    # the same field values in another class: FgAbGroup(1, (2, 4)) and
    # RealizationTarget(1, (2, 4)) are never equal
    stranger = (RealizationTarget if type(obj) is FgAbGroup
                else FgAbGroup)(1, (2, 4))
    assert obj != stranger and not obj == stranger
    assert obj.__eq__(object()) is NotImplemented and obj != object()
    if hashable:
        assert hash(obj) == hash(same) and {obj: 1}[same] == 1
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)
    name = next(iter(vars(obj)))  # the first field
    with pytest.raises(AttributeError):
        setattr(obj, name, None)
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.new_attribute = 1
    assert repr(obj) == text and obj == same
    for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj),
                 copy.deepcopy(obj)):
        assert type(twin) is type(obj) and repr(twin) == text
        if by_value:
            assert twin == obj
            assert not hashable or hash(twin) == hash(obj)


def test_fg_ab_group_is_a_frozen_value():
    g = FgAbGroup(1, (2, 4))
    _check_value(g, FgAbGroup(free_rank=1, invariant_factors=[2, 4]),
                 FgAbGroup(1, (2, 8)),
                 "FgAbGroup(free_rank=1, invariant_factors=(2, 4))")
    assert FgAbGroup(2) == FgAbGroup(2, ()) != FgAbGroup(3)
    assert FgAbGroup(True).free_rank == 1 and type(g.free_rank) is int
    assert g.invariant_factors == (2, 4)
    for args, message in (((-1,), "free rank must be non-negative"),
                          ((0, (1,)), r"must be >= 2: \(1,\)"),
                          ((0, (2, 3)), r"divisibility chain: \(2, 3\)")):
        with pytest.raises(ValueError, match=message):
            FgAbGroup(*args)
    with pytest.raises(TypeError):
        FgAbGroup(1.5)
    with pytest.raises(TypeError, match="free_rank"):
        FgAbGroup()


def test_realization_target_is_a_frozen_value():
    t = RealizationTarget(1, (2, 4))
    _check_value(t, RealizationTarget(rank=1, factors=[2, 4]),
                 RealizationTarget(1, (4, 2)),
                 "RealizationTarget(rank=1, factors=(2, 4))")
    assert RealizationTarget(2) == RealizationTarget(2, ())
    assert t.group() == FgAbGroup(1, (2, 4))
    for args, message in (((-1,), "rank must be non-negative"),
                          ((0, (2, 1)), r"must be >= 2: \(2, 1\)")):
        with pytest.raises(ValueError, match=message):
            RealizationTarget(*args)
    with pytest.raises(TypeError):
        RealizationTarget(0, ("2",))


def test_smith_decomposition_is_a_frozen_value():
    s = intmat.SmithDecomposition((2, 4), [[1, 0], [0, 1]], [[1, 0], [0, 1]])
    _check_value(s, intmat.smith_normal_form([[2, 0], [0, 4]]),
                 intmat.SmithDecomposition((2, 4), [[1, 0], [0, 1]],
                                           [[0, 1], [1, 0]]),
                 "SmithDecomposition(diagonal=(2, 4))", hashable=False)
    assert s.u_rows == [[1, 0], [0, 1]] and s.v_columns == s.u_rows
    with pytest.raises(TypeError, match="u_rows"):
        intmat.SmithDecomposition((1,))


def test_hermite_decomposition_is_a_frozen_value():
    h = intmat.HermiteDecomposition([[2, 0], [0, 4]], [[1, 0], [0, 1]],
                                    ((0, 0), (1, 1)), 2)
    _check_value(h, intmat.hermite_normal_form([[2, 0], [0, 4]]),
                 intmat.HermiteDecomposition([[2, 0], [0, 4]],
                                             [[1, 0], [0, 1]],
                                             ((0, 0), (1, 1)), 3),
                 "HermiteDecomposition(pivots=((0, 0), (1, 1)), rows=2)",
                 hashable=False)
    assert (h.h_columns, h.rows) == ([[2, 0], [0, 4]], 2)


def test_zero_one_matrix_is_a_frozen_value():
    a = ck.validate([[1, 1], [1, 0]])
    _check_value(a, ck.ZeroOneMatrix(data=b"\1\1\1\0", n=2),
                 ck.validate([[1, 1], [1, 1]]), "ZeroOneMatrix(n=2)")
    # the groups a report leaves on the matrix travel with its pickle and
    # copies, and take no part in equality, hashing or the repr
    report = ck.invariants(a)
    assert {"_weak", "_strong"} <= vars(a).keys()
    for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a),
                 copy.deepcopy(a)):
        assert {"_weak", "_strong"} <= vars(twin).keys()
        assert twin == a and hash(twin) == hash(ck.validate(a.rows))
        assert ck.invariants(twin) == report
    assert repr(a) == "ZeroOneMatrix(n=2)"


def test_ck_report_is_a_frozen_value():
    a = ck.validate([[1, 1], [1, 0]])
    r = ck.invariants(a)
    trivial = "FgAbGroup(free_rank=0, invariant_factors=())"
    _check_value(r, ck.invariants(ck.validate(a.rows)),
                 ck.invariants(ck.gen_cuntz(3)),
                 f"CKReport(n=2, k0={trivial}, k1={trivial}, "
                 f"ext_w1={trivial}, ext_w0={trivial}, "
                 "ext_s1=FgAbGroup(free_rank=1, invariant_factors=()), "
                 f"ext_s0={trivial}, pi1_aut={trivial}, pi2_aut={trivial}, "
                 f"pi1_aut_stable={trivial}, pi2_aut_stable={trivial}, "
                 "iota_one_order=0)")
    names = ("n", *(f for _, f in r._GROUPS), "iota_one_order")
    fields = {f: getattr(r, f) for f in names}
    assert ck.CKReport(**fields) == r
    assert ck.CKReport(**{**fields, "k0": Z}) != r
    assert list(r.to_json())[:3] == ["n", "K0", "K1"]


def test_five_term_sequence_is_a_frozen_value():
    full = ck.validate([[1, 1], [1, 1]])
    seq = ck.five_term_sequence(full)
    _check_value(seq, ck.FiveTermSequence(seq.groups, seq.maps),
                 ck.five_term_sequence(ck.gen_cuntz(3)),
                 "FiveTermSequence(groups=(PresentedGroup(1 generators, "
                 "1 relations), PresentedGroup(0 generators, 0 relations), "
                 "PresentedGroup(1 generators, 0 relations), "
                 "PresentedGroup(2 generators, 2 relations), "
                 "PresentedGroup(2 generators, 2 relations)), "
                 "maps=(GroupHom(1 -> 0 generators), GroupHom(0 -> 1 "
                 "generators), GroupHom(1 -> 2 generators), GroupHom(2 -> 2 "
                 "generators)))", by_value=False)
    # a presented group compares by identity, so a pickled sequence
    # equals the original group by group in canonical form
    twin = pickle.loads(pickle.dumps(seq))
    assert twin != seq and [g.canonical() for g in twin.groups] == \
        [g.canonical() for g in seq.groups]
    assert copy.copy(seq) == seq  # a shallow copy shares the groups
    # the class constants are not fields
    assert not {"map_names", "nodes_exact", "verified"} & vars(seq).keys()
    assert seq.map_names == ("j", "s", "iota", "q")
    assert seq.nodes_exact == (True,) * 5 and seq.verified
