import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage, special

from conftest import json_values
from platerec import data
from platerec.data import (
    ReviewRecord, SynthConfig, apply_transform, augment_minority,
    generate_synthetic, label_from_stars, load_feature_file, load_manifest,
    read_ppm, resize_image, save_feature_file, save_manifest,
    three_way_split, write_ppm,
)


# one token of a feature-file line: numbers, non-finite spellings and junk text
feature_tokens = st.one_of(
    st.floats(width=32).map(repr),
    st.integers(-10**40, 10**40).map(str),
    st.sampled_from(["nan", "-inf", "Infinity", "1e40", "0x1", "x"]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
            min_size=1, max_size=4),
)


def review(rid, user, rest, stars, n_images=1):
    return ReviewRecord(
        review_id=rid, user_id=user, restaurant_id=rest, stars=stars,
        image_paths=[f"{rid}_{i}.ppm" for i in range(n_images)],
    )


# ---------------------------------------------------------------------------
# Labels and manifest IO
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("stars,label", [(1, 0), (2, 0), (3, 0), (4, 1), (5, 1)])
def test_label_from_stars(stars, label):
    assert label_from_stars(stars) == label


def test_label_out_of_range():
    with pytest.raises(ValueError):
        label_from_stars(6)


VALID_MANIFEST_OBJECT = {"review_id": "r1", "user_id": "u1", "restaurant_id": "x", "stars": 5,
                         "images": ["a.ppm"]}

VALID_SPLIT_OBJECT = {"image_path": "a.ppm", "user_id": "u1", "restaurant_id": "x", "label": 1,
                      "origin": "original", "partition": "train"}

# image paths that would read from outside the data directory
OUTSIDE_IMAGE_PATHS = ["/abs/x.ppm", "../outside.ppm", "a/../../x.ppm"]


class TestManifest:

    def test_empty_file(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text("")
        assert load_manifest(p) == []

    def test_round_trip(self, tmp_path):
        recs = [review("r1", "u1", "x", 5, 2), review("r2", "u2", "y", 1)]
        recs[0].timestamp = 123
        p = tmp_path / "m.jsonl"
        save_manifest(recs, p)
        assert load_manifest(p) == recs

    def test_stars_out_of_range(self, tmp_path):
        p = tmp_path / "m.jsonl"
        save_manifest([review("r1", "u1", "x", 5)], p)
        p.write_text(p.read_text().replace('"stars": 5', '"stars": 6'))
        with pytest.raises(ValueError, match="stars"):
            load_manifest(p)

    def test_malformed_line_reports_line_number(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text('{"review_id": "r1"\n')
        with pytest.raises(ValueError, match=":1:"):
            load_manifest(p)

    def test_duplicate_review_id(self, tmp_path):
        p = tmp_path / "m.jsonl"
        save_manifest([review("r1", "u1", "x", 5), review("r1", "u2", "y", 1)], p)
        with pytest.raises(ValueError, match="duplicate"):
            load_manifest(p)

    @pytest.mark.parametrize("line", ["[1, 2]", '"r1"'] + [
        json.dumps({**VALID_MANIFEST_OBJECT, field: value}) for field, value in [
            ("stars", "abc"), ("stars", 4.5), ("stars", True), ("images", 7),
            ("images", "a.ppm"), ("images", [7]), ("review_id", ["r1"]), ("user_id", None),
        ]
    ])
    def test_mistyped_line_reports_path_and_line(self, tmp_path, line):
        p = tmp_path / "m.jsonl"
        save_manifest([review("r0", "u0", "x", 5)], p)
        with open(p, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        with pytest.raises(ValueError, match=f"{re.escape(str(p))}:2:"):
            load_manifest(p)

    @pytest.mark.parametrize("value", ["2020-01-01", 1.5, True, [1], {"t": 1}])
    def test_timestamp_that_is_not_an_integer_names_the_line(self, tmp_path, value):
        p = tmp_path / "m.jsonl"
        p.write_text(json.dumps({**VALID_MANIFEST_OBJECT, "timestamp": value}) + "\n")
        with pytest.raises(ValueError,
                           match=f"{re.escape(str(p))}:1: timestamp must be an integer"):
            load_manifest(p)

    @pytest.mark.parametrize("bad", OUTSIDE_IMAGE_PATHS)
    def test_image_path_leaving_the_data_directory_names_the_line(self, tmp_path, bad):
        p = tmp_path / "m.jsonl"
        p.write_text(json.dumps(VALID_MANIFEST_OBJECT) + "\n" + json.dumps(
            {**VALID_MANIFEST_OBJECT, "review_id": "r2", "images": ["b.ppm", bad]}) + "\n")
        with pytest.raises(ValueError, match=f"{re.escape(str(p))}:2: image path "
                                             f"{re.escape(repr(bad))} must be relative"):
            load_manifest(p)

    def test_image_paths_inside_the_data_directory_load(self, tmp_path):
        p = tmp_path / "m.jsonl"
        inside = ["a/b.ppm", "a/..b.ppm", "./c.ppm"]
        p.write_text(json.dumps({**VALID_MANIFEST_OBJECT, "images": inside}) + "\n")
        assert load_manifest(p)[0].image_paths == inside

    def test_null_timestamp_is_no_timestamp(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text(json.dumps({**VALID_MANIFEST_OBJECT, "timestamp": None}) + "\n")
        assert load_manifest(p)[0].timestamp is None

    def test_integral_float_stars_accepted(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text('{"review_id": "r1", "user_id": "u1", "restaurant_id": "x", '
                     '"stars": 4.0, "images": ["a.ppm"]}\n')
        assert load_manifest(p)[0].stars == 4

    @settings(max_examples=60, deadline=None)
    @given(field=st.sampled_from(["review_id", "user_id", "restaurant_id", "stars", "images",
                                  "timestamp"]),
           value=json_values)
    def test_fuzzed_field_loads_or_names_the_line(self, field, value):
        obj = {**VALID_MANIFEST_OBJECT, field: value}
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "m.jsonl"
            p.write_text(json.dumps(obj) + "\n")
            try:
                (rec,) = load_manifest(p)
            except ValueError as exc:
                assert f"{p}:1:" in str(exc)
                return
        assert all(isinstance(v, str) for v in (rec.review_id, rec.user_id, rec.restaurant_id))
        assert type(rec.stars) is int and 1 <= rec.stars <= 5
        assert rec.image_paths and all(isinstance(v, str) for v in rec.image_paths)
        assert rec.timestamp is None or type(rec.timestamp) is int


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

def partition_of_review(split, rec):
    parts = {r.partition for r in split.rows if r.image_path in rec.image_paths}
    assert len(parts) == 1, "images of one review must share a partition"
    return parts.pop()


class TestSplit:

    def test_duplicate_pair_goes_to_train(self):
        revs = [review("a1", "A", "X", 5), review("a2", "A", "X", 2),
                review("b1", "B", "Y", 4), review("b2", "B", "Z", 4)]
        split = three_way_split(revs, seed=0)
        assert partition_of_review(split, revs[0]) == "train"
        assert partition_of_review(split, revs[1]) == "train"

    def test_single_review_user_goes_to_train(self):
        revs = [review("b1", "B", "Y", 4),
                review("c1", "C", "Y", 4), review("c2", "C", "Z", 4)]
        split = three_way_split(revs, seed=0)
        assert partition_of_review(split, revs[0]) == "train"

    def test_restaurant_coverage_pulls_back_to_train(self):
        # user C: two positives (X, Y) and one negative (Z); Z is seen by
        # nobody else, so its held-out review must return to train.
        revs = [review("c1", "C", "X", 5), review("c2", "C", "Y", 4),
                review("c3", "C", "Z", 1),
                # duplicate pairs keep X and Y covered in train
                review("e1", "E", "X", 4), review("e2", "E", "X", 2),
                review("f1", "F", "Y", 4), review("f2", "F", "Y", 2)]
        split = three_way_split(revs, seed=0)
        assert partition_of_review(split, revs[2]) == "train"
        c_test = [r for r in split.rows
                  if r.user_id == "C" and r.partition == "test"]
        assert len(c_test) == 1

    def test_empty_input(self):
        with pytest.raises(ValueError):
            three_way_split([], seed=0)

    def test_stable_under_manifest_reordering(self):
        rng = np.random.default_rng(5)
        revs = [review(f"r{i}", f"u{i % 7}", f"x{i % 4}", int(rng.integers(1, 6)))
                for i in range(30)]
        a = three_way_split(revs, seed=3)
        b = three_way_split(list(reversed(revs)), seed=3)
        assert {(r.image_path, r.partition) for r in a.rows} == \
               {(r.image_path, r.partition) for r in b.rows}


def check_invariants(split, held="test"):
    """Brute-force set verification of the split guarantees."""
    parts = {}
    for r in split.rows:
        assert r.image_path not in parts, "image assigned twice"
        parts[r.image_path] = r
    train_users = {r.user_id for r in split.rows if r.partition == "train"}
    train_rests = {r.restaurant_id for r in split.rows if r.partition == "train"}
    for r in split.rows:
        if r.partition == held:
            assert r.user_id in train_users
            assert r.restaurant_id in train_rests


def random_manifest(rng, n_users=8, n_rests=5, max_reviews=4):
    revs = []
    rid = 0
    for u in range(n_users):
        for _ in range(int(rng.integers(1, max_reviews + 1))):
            revs.append(review(
                f"r{rid}", f"u{u}", f"x{rng.integers(n_rests)}",
                int(rng.integers(1, 6)), n_images=int(rng.integers(1, 3)),
            ))
            rid += 1
    return revs


class TestSplitInvariants:

    @pytest.mark.parametrize("seed", range(30))
    def test_two_way(self, seed):
        # the train/test guarantees, checked on the three-way split
        revs = random_manifest(np.random.default_rng(seed))
        split = three_way_split(revs, seed=seed)
        check_invariants(split)
        n_images = sum(len(r.image_paths) for r in revs)
        assert len(split.rows) == n_images  # coverage

    @pytest.mark.parametrize("seed", range(15))
    def test_three_way(self, seed):
        revs = random_manifest(np.random.default_rng(seed + 1000))
        split = three_way_split(revs, seed=seed)
        check_invariants(split, held="test")
        # validation plays the role of the held-out set wrt train
        train_users = {r.user_id for r in split.rows if r.partition == "train"}
        train_rests = {r.restaurant_id for r in split.rows if r.partition == "train"}
        for r in split.rows:
            if r.partition == "validation":
                assert r.user_id in train_users
                assert r.restaurant_id in train_rests

    def test_duplicated_pairs_entirely_in_train(self):
        rng = np.random.default_rng(77)
        revs = random_manifest(rng)
        split = three_way_split(revs, seed=2)
        pair_count = {}
        for rec in revs:
            key = (rec.user_id, rec.restaurant_id)
            pair_count[key] = pair_count.get(key, 0) + 1
        for rec in revs:
            if pair_count[(rec.user_id, rec.restaurant_id)] >= 2:
                assert partition_of_review(split, rec) == "train"


def test_split_file_round_trip(tmp_path):
    revs = random_manifest(np.random.default_rng(9))
    split = three_way_split(revs, seed=1)
    path = tmp_path / "split.jsonl"
    data.save_split(split, path)
    loaded = data.load_split(path)
    assert loaded.rows == split.rows
    assert loaded.user_index == split.user_index


class TestSplitReader:

    @pytest.mark.parametrize("origin", data.SPLIT_ORIGINS)
    def test_every_written_origin_loads(self, tmp_path, origin):
        p = tmp_path / "split.jsonl"
        p.write_text(json.dumps({**VALID_SPLIT_OBJECT, "origin": origin}) + "\n")
        assert data.load_split(p).rows[0].origin == origin

    @pytest.mark.parametrize("line", ["[1, 2]", '"a.ppm"', "7"] + [
        json.dumps({**VALID_SPLIT_OBJECT, field: value}) for field, value in [
            ("label", 7), ("label", 0.7), ("label", 1.0), ("label", True), ("label", "abc"),
            ("label", None), ("image_path", 5), ("user_id", None), ("restaurant_id", ["x"]),
            ("origin", "mirrored"), ("origin", 3), ("partition", "holdout"), ("partition", [1]),
        ]
    ] + [json.dumps({k: v for k, v in VALID_SPLIT_OBJECT.items() if k != "label"})])
    def test_malformed_line_reports_path_and_line(self, tmp_path, line):
        p = tmp_path / "split.jsonl"
        p.write_text(json.dumps(VALID_SPLIT_OBJECT) + "\n" + line + "\n")
        with pytest.raises(ValueError, match=f"{re.escape(str(p))}:2:"):
            data.load_split(p)

    @pytest.mark.parametrize("bad", OUTSIDE_IMAGE_PATHS)
    def test_image_path_leaving_the_data_directory_names_the_line(self, tmp_path, bad):
        p = tmp_path / "split.jsonl"
        p.write_text(json.dumps(VALID_SPLIT_OBJECT) + "\n"
                     + json.dumps({**VALID_SPLIT_OBJECT, "image_path": bad}) + "\n")
        with pytest.raises(ValueError, match=f"{re.escape(str(p))}:2: image path "
                                             f"{re.escape(repr(bad))} must be relative"):
            data.load_split(p)

    @settings(max_examples=60, deadline=None)
    @given(field=st.sampled_from(sorted(VALID_SPLIT_OBJECT)), value=json_values)
    def test_fuzzed_field_loads_or_names_the_line(self, field, value):
        obj = {**VALID_SPLIT_OBJECT, field: value}
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "split.jsonl"
            p.write_text(json.dumps(obj) + "\n")
            try:
                (row,) = data.load_split(p).rows
            except ValueError as exc:
                assert f"{p}:1:" in str(exc)
                return
        assert all(isinstance(v, str) for v in (row.image_path, row.user_id, row.restaurant_id))
        assert type(row.label) is int and row.label in (0, 1)
        assert row.origin in data.SPLIT_ORIGINS
        assert row.partition in data.PARTITIONS


# ---------------------------------------------------------------------------
# Transforms and augmentation
# ---------------------------------------------------------------------------

class TestTransforms:

    def test_flip_is_involution(self):
        img = np.random.default_rng(0).random((8, 6, 3)).astype(np.float32)
        assert np.array_equal(apply_transform(apply_transform(img, "flip_x"), "flip_x"), img)

    def test_flip_reverses_x(self):
        img = np.arange(12, dtype=np.float32).reshape(2, 2, 3)
        out = apply_transform(img, "flip_x")
        assert np.array_equal(out[:, 0, :], img[:, 1, :])
        assert np.array_equal(out[:, 1, :], img[:, 0, :])

    def test_translate_moves_lit_pixel(self):
        img = np.zeros((16, 16, 3), dtype=np.float32)
        img[2, 3, :] = 1.0
        out = apply_transform(img, "translate_5_5")
        assert out[7, 8, 0] == 1.0
        assert out.sum() == pytest.approx(3.0)

    @pytest.mark.parametrize("kind", data.TRANSFORM_KINDS)
    def test_size_preserved(self, kind):
        img = np.random.default_rng(1).random((12, 20, 3)).astype(np.float32)
        assert apply_transform(img, kind).shape == img.shape

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            apply_transform(np.zeros((4, 4, 3), dtype=np.float32), "shear")

    def test_rescale_zooms_in(self):
        # a center-bright image keeps its center; the border is pushed out
        img = np.zeros((16, 16, 3), dtype=np.float32)
        img[6:10, 6:10, :] = 1.0
        out = apply_transform(img, "rescale_125")
        assert out[8, 8, 0] == pytest.approx(1.0)
        assert out.sum() > img.sum()  # the bright square grew

    @settings(max_examples=120, deadline=None)
    @given(shape=st.tuples(st.integers(1, 90), st.integers(1, 90)),
           content=st.sampled_from(["u8", "binary", "random", "extreme"]),
           seed=st.integers(0, 2 ** 16))
    def test_warps_are_the_bytes_of_scipy_s_order_1_constant_mode(self, shape, content, seed):
        rng = np.random.default_rng(seed)
        shape = (*shape, 3)
        if content == "u8":  # the values read_ppm returns
            img = rng.integers(0, 256, shape) / 255.0
        elif content == "binary":
            img = rng.integers(0, 2, shape)
        elif content == "random":
            img = rng.random(shape)
        else:  # outside [0, 1] as well, so that the clip shows, down to subnormals
            pool = rng.uniform(1, 3, 4) * 10.0 ** rng.choice([-44, -3, 0, 3, 37], 4)
            img = rng.choice(np.concatenate([pool, -pool, [0.0, 0.5, 1.0]]), shape)
        img = img.astype(np.float32)
        s = 1.0 / 1.25
        cy, cx = (shape[0] - 1) / 2.0, (shape[1] - 1) / 2.0
        oracles = {
            "rotate_m30": ndimage.rotate(img, angle=-30.0, axes=(1, 0), reshape=False,
                                         order=1, mode="constant", cval=0.0),
            "rescale_125": ndimage.affine_transform(
                img, np.diag([s, s, 1.0]), offset=[cy * (1.0 - s), cx * (1.0 - s), 0.0],
                order=1, mode="constant", cval=0.0),
        }
        for kind, oracle in oracles.items():
            expected = np.clip(oracle, 0.0, 1.0).astype(np.float32)
            assert apply_transform(img, kind).tobytes() == expected.tobytes(), kind

    def test_rotation_uses_scipy_s_degree_cosine_and_sine(self):
        assert data.COS_M30 == special.cosdg(-30.0)
        assert data.SIN_M30 == special.sindg(-30.0)


class TestAugmentMinority:

    def make_triads(self, n_pos, n_neg):
        triads = [data.SplitRow(f"p{i}", "u", "r", 1, "original", "train") for i in range(n_pos)]
        triads += [data.SplitRow(f"n{i}", "u", "r", 0, "original", "train") for i in range(n_neg)]
        return triads

    def test_minority_quintupled_majority_untouched(self):
        aug = augment_minority(self.make_triads(20, 4))
        assert sum(t.label == 0 for t in aug) == 20
        assert sum(t.label == 1 for t in aug) == 20

    def test_origins_recorded(self):
        aug = augment_minority(self.make_triads(6, 1))
        origins = sorted(t.origin for t in aug if t.label == 0)
        assert origins == ["flipped", "original", "rescaled", "rotated", "translated"]

    def test_balanced_input_quintuples_smaller_class(self):
        aug = augment_minority(self.make_triads(3, 3))
        assert sum(t.label == 0 for t in aug) == 15
        assert sum(t.label == 1 for t in aug) == 3


# ---------------------------------------------------------------------------
# PPM and resize
# ---------------------------------------------------------------------------

class TestPpm:

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        img = (rng.integers(0, 256, (9, 7, 3)) / 255.0).astype(np.float32)
        p = tmp_path / "img.ppm"
        write_ppm(img, p)
        assert np.allclose(read_ppm(p), img)

    def test_white_pixel_bytes(self, tmp_path):
        p = tmp_path / "w.ppm"
        write_ppm(np.ones((1, 1, 3), dtype=np.float32), p)
        assert p.read_bytes() == b"P6\n1 1\n255\n\xff\xff\xff"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_names_the_path(self, tmp_path, value):
        img = np.full((2, 3, 3), 0.5, dtype=np.float32)
        img[1, 2, 0] = value
        p = tmp_path / "n.ppm"
        with pytest.raises(ValueError, match=f"{re.escape(str(p))}: image holds non-finite"):
            write_ppm(img, p)
        assert not p.exists()

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "t.ppm"
        p.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00")
        with pytest.raises(ValueError, match="truncated"):
            read_ppm(p)

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "b.ppm"
        p.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(ValueError, match="P6"):
            read_ppm(p)

    def test_wrong_maxval(self, tmp_path):
        p = tmp_path / "m.ppm"
        p.write_bytes(b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00")
        with pytest.raises(ValueError, match="maxval"):
            read_ppm(p)

    @pytest.mark.parametrize("size", [b"-2 2", b"0 2", b"2 0", b"2 -1"])
    def test_size_below_one_names_the_path(self, tmp_path, size):
        p = tmp_path / "s.ppm"
        p.write_bytes(b"P6\n" + size + b"\n255\n" + bytes(12))
        with pytest.raises(ValueError, match=f"{re.escape(str(p))}: PPM size must be positive"):
            read_ppm(p)

    def test_trailing_payload_bytes_name_the_path(self, tmp_path):
        p = tmp_path / "t.ppm"
        p.write_bytes(b"P6\n1 1\n255\n" + bytes(4))
        with pytest.raises(ValueError, match=f"{re.escape(str(p))}: trailing bytes"):
            read_ppm(p)

    @settings(max_examples=60, deadline=None)
    @given(w=st.integers(-3, 3), h=st.integers(-3, 3), maxval=st.sampled_from([0, 255, 256]),
           n_bytes=st.integers(0, 40))
    def test_fuzzed_header_loads_or_names_the_path(self, w, h, maxval, n_bytes):
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "f.ppm"
            p.write_bytes(b"P6\n%d %d\n%d\n" % (w, h, maxval) + bytes(n_bytes))
            try:
                img = read_ppm(p)
            except ValueError as exc:
                assert f"{p}: " in str(exc)
                return
        assert w >= 1 and h >= 1 and maxval == 255 and n_bytes == 3 * w * h
        assert img.shape == (h, w, 3)


def _resize_expression(image, height, width):
    """The bilinear resize written out in one piece, computing every index and
    weight array on the call: the bytes the cached form must reproduce."""
    h, w = image.shape[:2]
    ys = np.clip((np.arange(height) + 0.5) * h / height - 0.5, 0, h - 1)
    xs = np.clip((np.arange(width) + 0.5) * w / width - 0.5, 0, w - 1)
    y0, x0 = np.floor(ys).astype(int), np.floor(xs).astype(int)
    y1, x1 = np.minimum(y0 + 1, h - 1), np.minimum(x0 + 1, w - 1)
    fy, fx = (ys - y0)[:, None, None], (xs - x0)[None, :, None]
    out = (image[np.ix_(y0, x0)] * (1 - fy) * (1 - fx)
           + image[np.ix_(y0, x1)] * (1 - fy) * fx
           + image[np.ix_(y1, x0)] * fy * (1 - fx)
           + image[np.ix_(y1, x1)] * fy * fx)
    return out.astype(np.float32)


class TestResize:

    @pytest.mark.parametrize("src, dst", [((64, 64), (32, 32)), ((8, 8), (32, 32)),
                                          ((20, 37), (32, 13)), ((5, 9), (11, 3)),
                                          ((1, 1), (4, 6)), ((7, 3), (1, 1)),
                                          ((2, 2), (1, 1)), ((64, 20), (32, 10)),
                                          ((10, 64), (5, 32))])
    def test_bytes_are_the_expression_s(self, src, dst):
        img = np.random.default_rng(7).random((*src, 3)).astype(np.float32)
        for _ in range(2):  # the second call reads the cached plan
            assert resize_image(img, *dst).tobytes() == _resize_expression(img, *dst).tobytes()

    @pytest.mark.parametrize("src, dst, gathers", [((64, 64), (32, 32), False),
                                                   ((65, 64), (32, 32), True),
                                                   ((64, 64), (32, 31), True)])
    def test_only_an_exact_2x_skips_the_gather(self, src, dst, gathers):
        def plan_calls():
            info = data._resize_plan.cache_info()
            return info.hits + info.misses

        img = np.random.default_rng(3).random((*src, 3)).astype(np.float32)
        before = plan_calls()
        assert resize_image(img, *dst).tobytes() == _resize_expression(img, *dst).tobytes()
        assert plan_calls() - before == gathers

    @settings(max_examples=80, deadline=None)
    @given(half=st.tuples(st.integers(1, 20), st.integers(1, 20)), channels=st.integers(1, 4),
           content=st.sampled_from(["u8", "extreme"]),
           dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2 ** 16))
    def test_2x_bytes_are_the_expression_s(self, half, channels, content, dtype, seed):
        rng = np.random.default_rng(seed)
        shape = (2 * half[0], 2 * half[1], channels)
        if content == "u8":  # the values read_ppm returns
            img = rng.integers(0, 256, shape).astype(np.float32) / 255.0
        else:  # magnitudes from subnormal to near float32's largest, each with its
            # negative, so that exact cancellations make the summation order show
            pool = (rng.uniform(1, 3, 4)
                    * 10.0 ** rng.choice([-44, -30, 0, 30, 37], 4)).astype(np.float32)
            img = rng.choice(np.concatenate([pool, -pool]), shape)
        img = img.astype(dtype)
        assert resize_image(img, *half).tobytes() == _resize_expression(img, *half).tobytes()

    @pytest.mark.parametrize("shape", [(4, 4), (0, 4, 3), (4, 0, 3), (2, 4, 4, 3)])
    def test_input_that_is_not_h_w_c_rejected(self, shape):
        with pytest.raises(ValueError, match="H x W x C"):
            resize_image(np.zeros(shape, dtype=np.float32), 2, 2)

    def test_cached_arrays_are_read_only(self):
        img = np.zeros((12, 10, 3), dtype=np.float32)
        data._resize_plan.cache_clear()
        resize_image(img, 5, 4)  # not an exact 2x, so the call builds the plan
        info = data._resize_plan.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 1, 1)
        plan = data._resize_plan(12, 10, 5, 4)
        assert data._resize_plan.cache_info().hits == 1
        assert plan is data._resize_plan(12, 10, 5, 4)
        for arr in plan:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0

    def test_identity_at_same_size(self):
        img = np.random.default_rng(2).random((10, 10, 3)).astype(np.float32)
        assert np.allclose(resize_image(img, 10, 10), img, atol=1e-6)

    def test_constant_stays_constant(self):
        img = np.full((8, 8, 3), 0.4, dtype=np.float32)
        assert np.allclose(resize_image(img, 19, 5), 0.4, atol=1e-6)

    def test_checkerboard_interpolation(self):
        img = np.zeros((2, 2, 3), dtype=np.float32)
        img[0, 1] = img[1, 0] = 1.0
        out = resize_image(img, 4, 4)
        # independent hand oracle: source coords (i+0.5)/2 - 0.5, clipped
        coords = np.clip((np.arange(4) + 0.5) * 2 / 4 - 0.5, 0, 1)
        expected = np.empty((4, 4))
        for yi, y in enumerate(coords):
            for xi, x in enumerate(coords):
                y0, x0 = int(np.floor(y)), int(np.floor(x))
                y1, x1 = min(y0 + 1, 1), min(x0 + 1, 1)
                fy, fx = y - y0, x - x0
                expected[yi, xi] = (
                    img[y0, x0, 0] * (1 - fy) * (1 - fx)
                    + img[y0, x1, 0] * (1 - fy) * fx
                    + img[y1, x0, 0] * fy * (1 - fx)
                    + img[y1, x1, 0] * fy * fx
                )
        assert np.allclose(out[:, :, 0], expected, atol=1e-6)

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError):
            resize_image(np.zeros((4, 4, 3)), 0, 4)


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------

class TestSynthetic:

    def test_realized_ratio_near_target(self, tmp_path):
        config = SynthConfig(n_users=200, n_restaurants=12, target_ratio=6.0, seed=3)
        _, records = generate_synthetic(config, tmp_path)
        pos = sum(len(r.image_paths) for r in records if label_from_stars(r.stars) == 1)
        neg = sum(len(r.image_paths) for r in records if label_from_stars(r.stars) == 0)
        assert 5.4 <= pos / neg <= 6.6

    def test_zero_signal_brightness_independent_of_label(self, tmp_path):
        config = SynthConfig(n_users=400, n_restaurants=16, signal_strength=0.0,
                             images_per_review=(1, 1), image_size=16, seed=9)
        _, records = generate_synthetic(config, tmp_path)
        means, labels = [], []
        for rec in records:
            for p in rec.image_paths:
                means.append(read_ppm(tmp_path / p).mean())
                labels.append(label_from_stars(rec.stars))
        rho = np.corrcoef(means, labels)[0, 1]
        assert abs(rho) < 0.05

    def test_deterministic_bytes(self, tmp_path):
        config = SynthConfig(n_users=10, n_restaurants=4, seed=5)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        m1, _ = generate_synthetic(config, d1)
        m2, _ = generate_synthetic(config, d2)
        assert m1.read_bytes() == m2.read_bytes()
        for p in sorted((d1 / "images").iterdir()):
            assert p.read_bytes() == (d2 / "images" / p.name).read_bytes()

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            SynthConfig(target_ratio=0.0)

    @pytest.mark.parametrize("field, value", [
        ("images_per_review", (0, 0)), ("images_per_review", (0, 2)),
        ("images_per_review", (3, 2)), ("reviews_per_user", (0, 2)),
        ("reviews_per_user", (4, 2)), ("image_size", 0), ("image_size", -3),
    ])
    def test_value_the_generator_cannot_honour_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            SynthConfig(**{field: value})


# ---------------------------------------------------------------------------
# Feature files
# ---------------------------------------------------------------------------

class TestFeatureFile:

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        feats = {f"img{i}.ppm": rng.standard_normal(48).astype(np.float32)
                 for i in range(3)}
        p = tmp_path / "features.txt"
        save_feature_file(feats, p)
        loaded = load_feature_file(p)
        assert set(loaded) == set(feats)
        for k in feats:
            assert np.array_equal(loaded[k], feats[k])

    def test_header_declares_length(self, tmp_path):
        p = tmp_path / "f.txt"
        save_feature_file({"a.ppm": np.zeros(5, dtype=np.float32)}, p)
        assert p.read_text().splitlines()[0] == "5"

    def test_mixed_lengths_rejected_on_save(self, tmp_path):
        with pytest.raises(ValueError):
            save_feature_file({"a": np.zeros(3), "b": np.zeros(4)}, tmp_path / "f.txt")

    def test_mixed_lengths_rejected_on_load(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("3\na 1 2 3\nb 1 2\n")
        with pytest.raises(ValueError, match="expected 3"):
            load_feature_file(p)

    @pytest.mark.parametrize("text, lineno", [
        ("2\na.ppm 1 x\n", 2),           # not a number
        ("1\na.ppm 1\na.ppm 2\n", 3),     # duplicate image reference
        ("1\na.ppm nan\n", 2),
        ("1\na.ppm inf\n", 2),
        ("2\na.ppm 1 -inf\n", 2),
        ("1\na.ppm 1e40\n", 2),          # overflows float32
        ("-1\n", None),
        ("0\na.ppm\n", None),
        ("3\n", None),                   # no rows, which save_feature_file refuses to write
    ])
    def test_malformed_file_names_the_path(self, tmp_path, text, lineno):
        p = tmp_path / "f.txt"
        p.write_text(text)
        where = f"{p}:{lineno}:" if lineno else f"{p}: "
        with pytest.raises(ValueError, match=re.escape(where)):
            load_feature_file(p)

    @settings(max_examples=80, deadline=None)
    @given(dim=st.integers(-1, 3), draws=st.data())
    def test_fuzzed_file_loads_or_names_the_path(self, dim, draws):
        header = draws.draw(st.just(str(dim)) | feature_tokens)
        # most lines carry as many values as the header declares
        values = (st.just(max(dim, 0)) | st.integers(0, 4)).flatmap(
            lambda n: st.lists(feature_tokens, min_size=n, max_size=n))
        rows = draws.draw(st.lists(
            st.tuples(st.sampled_from(["a.ppm", "b.ppm", "c.ppm"]), values), max_size=3))
        lines = [" ".join([key, *vals]) for key, vals in rows]
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "f.txt"
            p.write_text("\n".join([header, *lines]) + "\n")
            try:
                features = load_feature_file(p)
            except ValueError as exc:
                assert f"{p}:" in str(exc)
                return
        assert len(features) == len(lines)  # no line silently dropped or overwritten
        for vec in features.values():
            assert vec.dtype == np.float32 and len(vec) == int(header) >= 1
            assert np.isfinite(vec).all()
