from fractions import Fraction as F

import numpy as np
import pytest

from queryvote import (
    InfeasibleQueryError,
    QuestionType,
    RefinementQuery,
    answer_query,
    bucket_sizes,
    make_question,
)
from queryvote.queries import slice_classes, validate_buckets
from queryvote.rng import substream


def test_bucket_sizes_next_shape():
    assert bucket_sizes((F(1, 4), F(3, 4)), 4) == (1, 3)


def test_bucket_sizes_half_shape():
    assert bucket_sizes((F(1, 2), F(1, 2)), 4) == (2, 2)


def test_bucket_sizes_thirds_of_five():
    # ideals are all 5/3; largest remainder hands the two spare units to the
    # earliest indices, and every size stays within 1 of the ideal
    assert bucket_sizes((F(1, 3), F(1, 3), F(1, 3)), 5) == (2, 2, 1)


def test_bucket_sizes_infeasible():
    with pytest.raises(InfeasibleQueryError):
        bucket_sizes((F(1, 2), F(1, 4), F(1, 4)), 2)


def test_bucket_sizes_repairs_empty_class():
    # ideals (0.2, 1.9, 2.9, 5): rounding starves the first bucket, which
    # borrows a unit from a bucket above its ideal; everything stays within 1
    ratios = (F(1, 50), F(19, 100), F(29, 100), F(1, 2))
    sizes = bucket_sizes(ratios, 10)
    assert sizes == (1, 2, 2, 5)
    assert all(abs(s - r * 10) < 1 for s, r in zip(sizes, ratios))


def test_bucket_sizes_drops_unsatisfiable_bucket():
    # no 3-class partition of 10 items can follow (0.05, 0.05, 0.9) within 1,
    # so the starved middle bucket is dropped and the rest renormalized
    sizes = bucket_sizes((F(1, 20), F(1, 20), F(9, 10)), 10)
    assert sum(sizes) == 10
    assert len(sizes) == 2
    assert all(s >= 1 for s in sizes)


def test_bucket_sizes_properties_fuzzed():
    rng = substream(21)
    for _ in range(300):
        size = int(rng.integers(1, 30))
        parts = int(rng.integers(1, size + 1))
        cuts = sorted(int(c) + 1 for c in rng.choice(size - 1, parts - 1, replace=False)) if parts > 1 else []
        bounds = [0, *cuts, size]
        ratios = tuple(F(bounds[i + 1] - bounds[i], size) for i in range(parts))
        sizes = bucket_sizes(ratios, size)
        assert sum(sizes) == size
        assert all(s >= 1 for s in sizes)
        if len(sizes) == parts:
            assert all(abs(sizes[j] - ratios[j] * size) < 1 for j in range(parts))


def test_validate_buckets_rejects_bad_vectors():
    with pytest.raises(ValueError):
        validate_buckets(())
    with pytest.raises(ValueError):
        validate_buckets((F(1, 2), F(1, 3)))
    with pytest.raises(ValueError):
        validate_buckets((1.2, -0.2))
    assert validate_buckets((0.5, 0.5 + 1e-12)) == (0.5, 0.5 + 1e-12)
    # Float ratios that miss 1 by more than the tolerance.
    with pytest.raises(ValueError, match="^bucket ratios must sum to 1, got 0.9$"):
        validate_buckets((0.5, 0.4))


def test_answer_query_peels_favourite():
    q = RefinementQuery((0, 1, 2, 3), (F(1, 4), F(3, 4)))
    assert answer_query((0, 1, 2, 3), q) == ((0,), (1, 2, 3))


def test_answer_query_splits_halves():
    q = RefinementQuery((0, 1, 2, 3), (F(1, 2), F(1, 2)))
    assert answer_query((0, 1, 2, 3), q) == ((0, 1), (2, 3))


def test_answer_query_singleton_subset():
    q = RefinementQuery((2,), (F(1),))
    assert answer_query((0, 1, 2, 3), q) == ((2,),)


def test_answer_query_unknown_candidate():
    q = RefinementQuery((0, 9), (F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        answer_query((0, 1, 2), q)


def test_answer_respects_secret_order_fuzzed():
    rng = substream(22)
    for _ in range(300):
        m = int(rng.integers(2, 12))
        secret = tuple(int(c) for c in rng.permutation(m))
        size = int(rng.integers(2, m + 1))
        subset = tuple(int(c) for c in rng.choice(m, size, replace=False))
        parts = int(rng.integers(1, size + 1))
        kind = list(QuestionType)[int(rng.integers(4))]
        q = make_question(kind, subset)
        answer = answer_query(secret, q)
        position = {c: i for i, c in enumerate(secret)}
        for earlier, later in zip(answer, answer[1:]):
            assert max(position[c] for c in earlier) < min(position[c] for c in later)
        # deterministic and idempotent
        assert answer_query(secret, q) == answer


def test_make_question_shapes():
    assert make_question(QuestionType.SPLIT, range(4)).buckets == (F(1, 2), F(1, 2))
    assert make_question(QuestionType.NEXT, range(4)).buckets == (F(1, 4), F(3, 4))
    assert make_question(QuestionType.LAST, range(4)).buckets == (F(3, 4), F(1, 4))
    assert make_question(QuestionType.NEXT_AND_LAST, range(5)).buckets == (
        F(1, 5),
        F(3, 5),
        F(1, 5),
    )


def test_make_question_split_odd():
    assert make_question(QuestionType.SPLIT, range(5)).buckets == (F(3, 5), F(2, 5))


def test_make_question_next_and_last_pair_collapses():
    # with two candidates the middle bucket would be empty, so it vanishes
    assert make_question(QuestionType.NEXT_AND_LAST, (3, 7)).buckets == (F(1, 2), F(1, 2))


def test_make_question_degenerate_returns_none():
    assert make_question(QuestionType.NEXT, (5,)) is None
    assert make_question(QuestionType.SPLIT, ()) is None


def test_repeated_split_reconstructs_secret():
    rng = substream(23)
    for _ in range(50):
        m = int(rng.integers(2, 15))
        secret = tuple(int(c) for c in rng.permutation(m))
        classes = [tuple(sorted(secret))]
        while any(len(cls) > 1 for cls in classes):
            refined = []
            for cls in classes:
                q = make_question(QuestionType.SPLIT, cls)
                if q is None:
                    refined.append(cls)
                else:
                    refined.extend(answer_query(secret, q))
            classes = refined
        assert tuple(cls[0] for cls in classes) == secret


def test_slice_classes_canonicalizes():
    assert slice_classes([3, 1, 2, 0], (2, 2)) == ((1, 3), (0, 2))


def test_query_validation():
    with pytest.raises(ValueError):
        RefinementQuery((), (F(1),))
    with pytest.raises(ValueError):
        RefinementQuery((1, 1), (F(1),))
    with pytest.raises(InfeasibleQueryError):
        RefinementQuery((1,), (F(1, 2), F(1, 2)))
    # Candidate ids are ints by type, as in an Election.
    with pytest.raises(ValueError, match="candidate ids must be ints, got 2.7"):
        RefinementQuery((2.7, 0.2, True), (F(1, 3), F(2, 3)))
    for subset in ((0, True), (1, False), ("1", 0), (1.0, 0), (np.bool_(1), 0), (np.array(1), 0)):
        with pytest.raises(ValueError, match="candidate ids must be ints"):
            RefinementQuery(subset, (F(1, 2), F(1, 2)))
        with pytest.raises(ValueError, match="candidate ids must be ints"):
            make_question(QuestionType.SPLIT, subset)
    with pytest.raises(ValueError, match="candidate ids must be ints, got 2.9"):
        make_question(QuestionType.SPLIT, (2.9, True))
    query = RefinementQuery((np.int64(2), np.int8(0)), (F(1, 2), F(1, 2)))
    assert query.subset == (2, 0) and all(type(c) is int for c in query.subset)
    assert make_question(QuestionType.SPLIT, (np.int64(3), 1)).subset == (1, 3)
