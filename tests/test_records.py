import copy
import pickle
from array import array

import pytest

from residueseq import analysis
from residueseq.compress import CompressingMap, MultivariatePoly, psi_zw
from residueseq.errors import InvalidInputError
from residueseq.polyring import RingPolynomial
from residueseq.primitivity import certify
from residueseq.ringcore import RingContext, UnivariateFn
from residueseq.sequences import LevelSequence, generate, level

Z9 = RingContext(3, 2)
F9 = RingPolynomial(Z9, (8, 8, 1))
MAP = CompressingMap(g=UnivariateFn(5, (0, 0, 1)), eta=psi_zw(5, 2, 0, 2), e=2)


def _records():
    """One record of every type, and sequences under both term stores."""
    cert = certify(F9)
    wide = generate(RingPolynomial(RingContext(17, 2), (3, 1)), (1,))  # 289 > 256: an array
    seq = generate(F9, (0, 1))
    cert25 = certify(RingPolynomial(RingContext(5, 2), (2, 1, 1)))
    return {
        "RingContext": Z9,
        "UnivariateFn": UnivariateFn(3, (1, 2)),
        "RingPolynomial": F9,
        "PrimitivityCertificate": cert,
        "LRSequence": seq,
        "LRSequence-array": wide,
        "LevelSequence": level(seq, 1),
        "LevelSequence-array": LevelSequence(257, array("L", [1, 0, 256]), 3),
        "MultivariatePoly": MAP.eta,
        "CompressingMap": MAP,
        "UniformityReport": analysis.run_suite("carry", ps=(3,))[0],
        "UniformCount": analysis.count_uniform_s(cert25, MAP, 24),
    }


RECORDS = _records()


@pytest.mark.parametrize("name", RECORDS)
def test_copies_and_pickles_are_equal_records(name):
    record = RECORDS[name]
    for clone in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record, pickle.HIGHEST_PROTOCOL))):
        assert type(clone) is type(record)
        assert clone == record
    # a record is the tuple of its fields
    assert record == tuple(getattr(record, field) for field in record._fields)


def test_sequences_stay_unhashable_and_polynomials_hash_by_value():
    for name in ("LRSequence", "LRSequence-array", "LevelSequence", "LevelSequence-array"):
        with pytest.raises(TypeError):
            hash(RECORDS[name])
    assert hash(MultivariatePoly(3, 2, {(1, 0): 1, (0, 1): 2})) == hash(
        MultivariatePoly(3, 2, {(0, 1): 2, (1, 0): 1}))
    assert hash(RingPolynomial(Z9, (17, 8, 1, 0))) == hash(F9)


def test_replace_rebuilds_a_ring_context():
    ctx = Z9._replace(e=3)
    assert ctx == RingContext(3, 3) and ctx.modulus == 27
    assert RingContext._make((5, 2)).modulus == 25
    with pytest.raises(InvalidInputError):
        Z9._replace(p=9)
    with pytest.raises(InvalidInputError):
        Z9._replace(e=0)


def test_replace_renormalises_a_univariate_fn():
    g = UnivariateFn(3, (1, 2))
    # x^3 = x on Z/3, and the trailing zero is trimmed
    assert g._replace(coeffs=(1, 0, 0, 1, 0)).coeffs == (1, 1)
    assert g._replace(p=5).coeffs == (1, 2)
    with pytest.raises(InvalidInputError):
        g._replace(p=4)


def test_replace_renormalises_a_ring_polynomial():
    assert F9._replace(coeffs=(10, 9, 0)).coeffs == (1,)
    assert F9._replace(ctx=RingContext(3, 1)).coeffs == (2, 2, 1)
    assert RingPolynomial._make((Z9, (9, 1))).coeffs == (0, 1)


def test_replace_renormalises_a_multivariate_poly():
    eta = MultivariatePoly(3, 1, {(1,): 1})
    # x^4 = x^2 on Z/3, and 3 = 0
    assert eta._replace(coeffs={(4,): 4, (0,): 3}).coeffs == {(2,): 1}
    with pytest.raises(InvalidInputError):
        eta._replace(arity=2)
    with pytest.raises(InvalidInputError):
        eta._replace(p=1)


def test_replace_rechecks_a_compressing_map():
    assert MAP._replace(g=UnivariateFn(5, (0, 1))).g.degree == 1
    with pytest.raises(InvalidInputError):
        MAP._replace(e=3)  # eta takes one variable, not two
    with pytest.raises(InvalidInputError):
        MAP._replace(g=UnivariateFn(5, (3,)))  # deg g = 0
    with pytest.raises(InvalidInputError):
        MAP._replace(g=UnivariateFn(3, (0, 1)))  # g over Z/3, eta over Z/5
