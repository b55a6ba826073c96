import math

import numpy as np
import pytest
from scipy import ndimage

from lvseg.dataset import ImageSample, make_folds
from lvseg.errors import ContractViolation
from lvseg.phantom import ellipse_area, ellipse_mask, generate_phantom, generate_phantom_set
from lvseg.preprocess import compose_input, elastic_deform, niblack_threshold


# -- niblack ---------------------------------------------------------------

def test_niblack_constant_image_all_zero():
    assert not niblack_threshold(np.full((5, 5), 77, dtype=np.uint8)).any()


def test_niblack_small_example():
    # [0,0,0,8]: m=2, sigma=sqrt(12), T ~ 8.93 -> nothing above threshold
    img = np.array([[0, 0], [0, 8]], dtype=np.uint8)
    assert not niblack_threshold(img).any()


def test_niblack_k_sensitivity():
    img = np.array([[0, 0], [0, 200]], dtype=np.uint8)
    assert not niblack_threshold(img, k=2).any()  # T ~ 223.2
    out = niblack_threshold(img, k=1)             # T ~ 136.6
    assert out[1, 1] == 255 and out.sum() == 255


def test_niblack_binary_output_values():
    rng = np.random.default_rng(0)
    out = niblack_threshold(rng.integers(0, 256, (16, 16)).astype(np.uint8))
    assert set(np.unique(out)) <= {0, 255}


def test_niblack_permutation_invariance():
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, (8, 8)).astype(np.uint8)
    out = niblack_threshold(img)
    perm = rng.permutation(img.size)
    out_perm = niblack_threshold(img.reshape(-1)[perm].reshape(8, 8))
    assert np.array_equal(out_perm, out.reshape(-1)[perm].reshape(8, 8))


def test_niblack_empty_rejected():
    with pytest.raises(ContractViolation):
        niblack_threshold(np.zeros((0, 0)))


# -- elastic deformation ----------------------------------------------------

def _phantom(seed=0):
    return generate_phantom(64, seed)[0]


def test_elastic_zero_amplitude_is_identity():
    s = _phantom()
    out = elastic_deform(s, alpha=0.0, sigma=6.0, seed=5)
    assert np.array_equal(out.image, s.image)
    assert np.array_equal(out.mask, s.mask)


def test_elastic_mask_stays_binary():
    s = _phantom(1)
    out = elastic_deform(s, alpha=3.0, sigma=5.0, seed=9)
    assert set(np.unique(out.mask)) <= {0, 1}


def test_elastic_deterministic_per_seed():
    s = _phantom(2)
    a = elastic_deform(s, alpha=2.0, sigma=6.0, seed=11)
    b = elastic_deform(s, alpha=2.0, sigma=6.0, seed=11)
    c = elastic_deform(s, alpha=2.0, sigma=6.0, seed=12)
    assert np.array_equal(a.image, b.image) and np.array_equal(a.mask, b.mask)
    assert not np.array_equal(a.image, c.image)


def test_elastic_preserves_mask_area_band():
    # sanity band: alpha <= 3, sigma >= 4 keeps the pixel count within 15%
    s = _phantom(3)
    base = s.mask.sum()
    ratios = [elastic_deform(s, alpha=3.0, sigma=4.0, seed=k).mask.sum() / base
              for k in range(100)]
    assert all(0.85 <= r <= 1.15 for r in ratios)


def test_elastic_rejects_bad_params():
    s = _phantom(4)
    with pytest.raises(ContractViolation):
        elastic_deform(s, alpha=-1.0, sigma=6.0)
    with pytest.raises(ContractViolation):
        elastic_deform(s, alpha=1.0, sigma=0.0)


def test_compose_input_shape_and_range():
    s = _phantom(5)
    x = compose_input(s)
    assert x.shape == (2, 64, 64)
    assert x.dtype == np.float32
    assert x.min() >= 0.0 and x.max() <= 1.0
    assert set(np.unique(x[1])) <= {0.0, 1.0}


# -- phantoms ----------------------------------------------------------------

def test_phantom_es_smaller_than_ed_every_seed():
    for seed in range(25):
        ed, es = generate_phantom(64, seed)
        assert es.mask.sum() < ed.mask.sum()


def test_phantom_single_connected_component():
    four = [[0, 1, 0], [1, 1, 1], [0, 1, 0]]
    for seed in range(25):
        ed, es = generate_phantom(64, seed)
        for m in (ed.mask, es.mask):
            _, count = ndimage.label(m, structure=four)
            assert count == 1


def test_phantom_rejects_small_extent():
    with pytest.raises(ContractViolation):
        generate_phantom(16, 0)


def test_ellipse_raster_area_close_to_analytic():
    for a, b in [(20, 12), (25, 10), (15, 15)]:
        mask = ellipse_mask((64, 64), (32, 32), (a, b))
        assert abs(int(mask.sum()) - ellipse_area(a, b)) / ellipse_area(a, b) < 0.02


def test_phantom_set_subjects_and_phases():
    samples = generate_phantom_set(4, 64, 7)
    assert len(samples) == 8
    subjects = {s.subject for s in samples}
    assert len(subjects) == 4
    for subj in subjects:
        phases = sorted(s.phase for s in samples if s.subject == subj)
        assert phases == ["ED", "ES"]


def test_phantom_set_deterministic():
    a = generate_phantom_set(3, 64, 9)
    b = generate_phantom_set(3, 64, 9)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.image, sb.image)
        assert np.array_equal(sa.mask, sb.mask)


# -- folds --------------------------------------------------------------------

def _single_sample_subjects(n):
    img = np.zeros((4, 4), dtype=np.uint8)
    mask = np.zeros((4, 4), dtype=np.uint8)
    return [ImageSample(image=img, mask=mask, calibration=0.3, phase="other",
                        subject=f"s{i:03d}", sample_id=f"s{i:03d}_other")
            for i in range(n)]


def test_folds_even_split_single_sample_subjects():
    fa = make_folds(_single_sample_subjects(100), n_folds=5, seed=1)
    sizes = [fa.folds.count(k) for k in range(5)]
    assert sizes == [20, 20, 20, 20, 20]


def test_folds_keep_subject_together():
    samples = generate_phantom_set(10, 64, 3)
    fa = make_folds(samples, n_folds=5, seed=2)
    for subj in {s.subject for s in samples}:
        folds = {fa.folds[i] for i, s in enumerate(samples) if s.subject == subj}
        assert len(folds) == 1


def test_folds_partition_each_sample_held_out_once():
    samples = generate_phantom_set(7, 64, 4)
    fa = make_folds(samples, n_folds=5, seed=3)
    held = []
    for k in range(5):
        train, val = fa.train_val_indices(k)
        assert sorted(train + val) == list(range(len(samples)))
        held.extend(val)
    assert sorted(held) == list(range(len(samples)))


def test_folds_balanced_subject_counts():
    samples = generate_phantom_set(11, 64, 5)
    fa = make_folds(samples, n_folds=5, seed=6)
    subject_folds = {s.subject: fa.folds[i] for i, s in enumerate(samples)}
    per_fold = [sum(1 for f in subject_folds.values() if f == k) for k in range(5)]
    assert max(per_fold) - min(per_fold) <= 1


def test_folds_require_enough_subjects():
    with pytest.raises(ContractViolation):
        make_folds(_single_sample_subjects(3), n_folds=5)


def test_folds_deterministic_by_seed():
    samples = generate_phantom_set(8, 64, 6)
    a = make_folds(samples, 4, seed=9).folds
    b = make_folds(samples, 4, seed=9).folds
    c = make_folds(samples, 4, seed=10).folds
    assert a == b
    assert a != c


def test_augmentation_factor_scaling():
    # 1 original + 9 deformations per image scales 137 -> 1370
    from lvseg.training import augment_samples
    samples = generate_phantom_set(2, 64, 8)
    out = augment_samples(samples, factor=10, base_seed=0)
    assert len(out) == 10 * len(samples)
