"""Review manifests, image IO, label derivation, dataset splitting and augmentation.

The split procedure assigns every image of every review to exactly one
partition while guaranteeing that (a) every user and restaurant seen in the
held-out partition also appears in train and (b) repeated (user, restaurant)
pairs land entirely in train. Minority-class augmentation enlarges only the
smaller class with four fixed image transforms. Two of them, the rotation and
the rescale, are order-1 affine warps that sample through the bilinear gather
of the resize; a point outside the image gives 0. Their bytes are those of
scipy.ndimage's order-1 constant mode, which the tests use as an oracle; the
package itself needs only numpy.

Images are held in memory as H x W x 3 float32 arrays in [0, 1] and stored
on disk as binary PPM (P6, maxval 255).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .nn import derive_seed, make_rng

TRANSFORM_KINDS = ("rotate_m30", "flip_x", "rescale_125", "translate_5_5")

ORIGIN_OF_KIND = {
    "rotate_m30": "rotated",
    "flip_x": "flipped",
    "rescale_125": "rescaled",
    "translate_5_5": "translated",
}
# every origin a split row can carry: an original image or one augmentation
SPLIT_ORIGINS = ("original", *ORIGIN_OF_KIND.values())

PARTITIONS = ("train", "validation", "test")


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

@dataclass
class ReviewRecord:
    review_id: str
    user_id: str
    restaurant_id: str
    stars: int
    image_paths: list[str]
    timestamp: int | None = None


@dataclass
class SplitRow:
    """One review image: the (user, restaurant, image) triad with its label,
    where the image came from and the partition it belongs to."""
    image_path: str
    user_id: str
    restaurant_id: str
    label: int
    origin: str
    partition: str


@dataclass
class SplitAssignment:
    rows: list[SplitRow]
    user_index: dict[str, int]
    restaurant_index: dict[str, int]

    def rows_in(self, partition):
        return [r for r in self.rows if r.partition == partition]

    def triads(self, partition) -> SplitAssignment:
        """The partition's rows under this split's id maps."""
        return replace(self, rows=self.rows_in(partition))


def label_from_stars(stars: int) -> int:
    """Stars 1-3 mean dislike (0), 4-5 mean like (1)."""
    if not 1 <= stars <= 5:
        raise ValueError(f"stars must be in [1, 5], got {stars}")
    return 1 if stars >= 4 else 0


# ---------------------------------------------------------------------------
# Manifest IO (one JSON object per line)
# ---------------------------------------------------------------------------

def _jsonl_objects(path, what, fields):
    """(line number, object) for each non-blank line of a JSONL file. A line
    that is not a JSON object holding every one of `fields` raises ValueError
    naming `path:line`."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: malformed {what} line: {exc}") from exc
            if not isinstance(obj, dict):
                raise ValueError(
                    f"{path}:{lineno}: expected a JSON object, got {type(obj).__name__}"
                )
            for name in fields:
                if name not in obj:
                    raise ValueError(f"{path}:{lineno}: missing field {name!r}")
            yield lineno, obj


def check_image_path(image_path, where=None):
    """Raise ValueError, prefixed with `where` (a `path:line`) when given,
    unless `image_path` is relative with no `..` part, so every image is read
    from inside its data directory."""
    parts = Path(image_path)
    if parts.is_absolute() or ".." in parts.parts:
        prefix = f"{where}: " if where else ""
        raise ValueError(f"{prefix}image path {image_path!r} must be relative, with no '..'")


def load_manifest(path) -> list[ReviewRecord]:
    records = []
    seen = set()
    # the required keys, in ReviewRecord's field order
    fields = ("review_id", "user_id", "restaurant_id", "stars", "images")
    for lineno, obj in _jsonl_objects(path, "manifest", fields):
        rec = ReviewRecord(*(obj[name] for name in fields), timestamp=obj.get("timestamp"))
        for name in ("review_id", "user_id", "restaurant_id"):
            if not isinstance(getattr(rec, name), str):
                raise ValueError(f"{path}:{lineno}: {name} must be a string")
        # JSON has one number type: 4 and 4.0 are both four stars, 4.5 is not
        if isinstance(rec.stars, float) and rec.stars.is_integer():
            rec.stars = int(rec.stars)
        if type(rec.stars) is not int:
            raise ValueError(f"{path}:{lineno}: stars must be an integer, got {rec.stars!r}")
        if not isinstance(rec.image_paths, list) or not all(
            isinstance(p, str) for p in rec.image_paths
        ):
            raise ValueError(f"{path}:{lineno}: images must be a list of path strings")
        for image_path in rec.image_paths:
            check_image_path(image_path, f"{path}:{lineno}")
        if not 1 <= rec.stars <= 5:
            raise ValueError(f"{path}:{lineno}: stars must be in [1, 5], got {rec.stars}")
        if not rec.image_paths:
            raise ValueError(f"{path}:{lineno}: review has no images")
        # null, like an absent field, means no timestamp; a bool is not an integer
        if rec.timestamp is not None and type(rec.timestamp) is not int:
            raise ValueError(
                f"{path}:{lineno}: timestamp must be an integer, got {rec.timestamp!r}")
        if rec.review_id in seen:
            raise ValueError(f"{path}:{lineno}: duplicate review_id {rec.review_id!r}")
        seen.add(rec.review_id)
        records.append(rec)
    return records


def save_manifest(records, path):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            obj = {
                "review_id": rec.review_id,
                "user_id": rec.user_id,
                "restaurant_id": rec.restaurant_id,
                "stars": rec.stars,
                "images": rec.image_paths,
            }
            if rec.timestamp is not None:
                obj["timestamp"] = rec.timestamp
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

def _index_map(ids):
    return {v: i for i, v in enumerate(sorted(set(ids)))}


def _split_reviews(reviews, seed):
    """Partition reviews into (train_ids, held_out_ids) per the three rules.

    Per user: (1) reviews repeating a (user, restaurant) pair all go to
    train; (2) the rest are grouped by label and each group donates one
    seeded-random review to the held-out set, provided the user keeps at
    least one train review; (3) held-out reviews whose restaurant never
    occurs in train are pulled back into train.
    """
    by_user: dict[str, list[ReviewRecord]] = {}
    for rec in reviews:
        by_user.setdefault(rec.user_id, []).append(rec)

    train, held = [], []
    for user_id in sorted(by_user):
        revs = sorted(by_user[user_id], key=lambda r: r.review_id)
        rest_count: dict[str, int] = {}
        for r in revs:
            rest_count[r.restaurant_id] = rest_count.get(r.restaurant_id, 0) + 1
        dup = [r for r in revs if rest_count[r.restaurant_id] >= 2]
        unique = [r for r in revs if rest_count[r.restaurant_id] == 1]
        train.extend(dup)
        n_train_user = len(dup)
        if len(revs) == 1:
            train.extend(unique)
            continue
        for label in (0, 1):
            group = [r for r in unique if label_from_stars(r.stars) == label]
            if not group:
                continue
            if len(group) == 1:
                # a lone review may be held out only if the user keeps train coverage
                if n_train_user >= 1:
                    held.extend(group)
                else:
                    train.extend(group)
                    n_train_user += 1
                continue
            rng = make_rng(seed, f"split:{user_id}:{label}")
            pick = int(rng.integers(len(group)))
            held.append(group[pick])
            rest = [r for i, r in enumerate(group) if i != pick]
            train.extend(rest)
            n_train_user += len(rest)

    train_restaurants = {r.restaurant_id for r in train}
    moved = [r for r in held if r.restaurant_id not in train_restaurants]
    held = [r for r in held if r.restaurant_id in train_restaurants]
    train.extend(moved)
    return {r.review_id for r in train}, {r.review_id for r in held}


def three_way_split(reviews, seed) -> SplitAssignment:
    """Train/test split of a review manifest under the three rules, then the
    train reviews re-split with the same procedure into train/validation.
    One row per review image, in manifest order, in its review's partition."""
    if not reviews:
        raise ValueError("cannot split an empty manifest")
    train_ids, test_ids = _split_reviews(reviews, seed)
    part = dict.fromkeys(train_ids, "train")
    part.update(dict.fromkeys(test_ids, "test"))
    train_reviews = [r for r in reviews if part[r.review_id] == "train"]
    _, val_ids = _split_reviews(train_reviews, derive_seed(seed, "train-val"))
    part.update(dict.fromkeys(val_ids, "validation"))
    return SplitAssignment(
        rows=[SplitRow(img, rec.user_id, rec.restaurant_id, label_from_stars(rec.stars),
                       "original", part[rec.review_id])
              for rec in reviews for img in rec.image_paths],
        user_index=_index_map(r.user_id for r in reviews),
        restaurant_index=_index_map(r.restaurant_id for r in reviews),
    )


def save_split(split: SplitAssignment, path):
    with open(path, "w", encoding="utf-8") as fh:
        for row in split.rows:
            fh.write(json.dumps(asdict(row), sort_keys=True) + "\n")


def load_split(path) -> SplitAssignment:
    """Read a split file `save_split` wrote; a malformed line raises ValueError
    naming `path:line`."""
    rows = []
    names = [f.name for f in fields(SplitRow)]
    for lineno, obj in _jsonl_objects(path, "split", names):
        row = SplitRow(*(obj[name] for name in names))
        for name in ("image_path", "user_id", "restaurant_id"):
            if not isinstance(getattr(row, name), str):
                raise ValueError(f"{path}:{lineno}: {name} must be a string")
        check_image_path(row.image_path, f"{path}:{lineno}")
        if type(row.label) is not int or row.label not in (0, 1):
            raise ValueError(f"{path}:{lineno}: label must be 0 or 1, got {row.label!r}")
        if row.origin not in SPLIT_ORIGINS:
            raise ValueError(f"{path}:{lineno}: unknown origin {row.origin!r}")
        if row.partition not in PARTITIONS:
            raise ValueError(f"{path}:{lineno}: unknown partition {row.partition!r}")
        rows.append(row)
    return SplitAssignment(
        rows=rows,
        user_index=_index_map(r.user_id for r in rows),
        restaurant_index=_index_map(r.restaurant_id for r in rows),
    )


# ---------------------------------------------------------------------------
# Image transforms and augmentation
# ---------------------------------------------------------------------------

# scipy.special.cosdg(-30) and sindg(-30): the exact degree cosine and sine
# that scipy.ndimage.rotate builds its matrix from (sin is not quite -0.5)
COS_M30 = 0.8660254037844387
SIN_M30 = -0.49999999999999994


def _affine_warp(image, matrix, offset):
    """Order-1 affine warp of an H x W x C image onto its own grid, clipped to
    [0, 1]: pixel (i, j) samples the input at offset + matrix @ (i, j).

    Each coordinate sums the offset first, then the i and j terms, as scipy
    does, so the bytes are those of `ndimage.affine_transform(order=1)`.
    """
    h, w = image.shape[:2]
    i = np.arange(h)[:, None]
    j = np.arange(w)
    ys = offset[0] + matrix[0][0] * i + matrix[0][1] * j
    xs = offset[1] + matrix[1][0] * i + matrix[1][1] * j
    out = _bilinear(image, _bilinear_taps(ys, xs, h, w))
    out[(ys < 0) | (ys > h - 1) | (xs < 0) | (xs > w - 1)] = 0.0
    return np.clip(out.astype(np.float32), 0.0, 1.0)


def apply_transform(image, kind):
    """One of the four fixed size-preserving augmentation transforms.

    `rotate_m30` (about the image center) and `rescale_125` (a 1.25 zoom about
    the center) are order-1 affine warps that share resize's bilinear gather; a
    point that falls outside the image gives 0, and the result is clipped to
    [0, 1]. Their bytes equal scipy.ndimage's order-1 constant mode with
    `ndimage.rotate`'s and `ndimage.affine_transform`'s matrix and offset, which
    the tests use as an oracle.
    """
    image = np.asarray(image, dtype=np.float32)
    h, w = image.shape[:2]
    if kind == "flip_x":
        return image[:, ::-1, :].copy()
    if kind == "translate_5_5":
        out = np.zeros_like(image)
        if h > 5 and w > 5:
            out[5:, 5:, :] = image[:h - 5, :w - 5, :]
        return out
    center = np.array([(h - 1) / 2.0, (w - 1) / 2.0])
    if kind == "rotate_m30":
        matrix = np.array([[COS_M30, SIN_M30], [-SIN_M30, COS_M30]])
        return _affine_warp(image, matrix, center - matrix @ center)
    if kind == "rescale_125":
        s = 1.0 / 1.25
        return _affine_warp(image, np.diag([s, s]), center * (1.0 - s))
    raise ValueError(f"unknown transform kind {kind!r}")


def augment_minority(rows: list[SplitRow]) -> list[SplitRow]:
    """The rows, then one copy per transform of every original minority-class
    row (x5), tagged with the transform's origin."""
    counts = {0: 0, 1: 0}
    for r in rows:
        counts[r.label] += 1
    if counts[0] == 0 or counts[1] == 0:
        minority = 0 if counts[0] > 0 else 1
    else:
        minority = 0 if counts[0] <= counts[1] else 1
    out = list(rows)
    for r in rows:
        if r.label != minority or r.origin != "original":
            continue
        for kind in TRANSFORM_KINDS:
            out.append(replace(r, origin=ORIGIN_OF_KIND[kind]))
    return out


# ---------------------------------------------------------------------------
# PPM IO and resizing
# ---------------------------------------------------------------------------

def write_ppm(image, path):
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"expected H x W x 3 image, got shape {image.shape}")
    if not np.isfinite(image).all():
        raise ValueError(f"{path}: image holds non-finite pixels")
    h, w = image.shape[:2]
    u8 = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (w, h))
        fh.write(u8.tobytes())


def read_ppm(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(b"P6"):
        raise ValueError(f"{path}: not a binary PPM (P6) file")
    # header: magic then three whitespace-separated integers, '#' comments allowed
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if pos < len(blob) and blob[pos:pos + 1] == b"#":
            while pos < len(blob) and blob[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError(f"{path}: truncated PPM header")
        try:
            fields.append(int(blob[start:pos]))
        except ValueError as exc:
            raise ValueError(f"{path}: bad PPM header token") from exc
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if w < 1 or h < 1:
        raise ValueError(f"{path}: PPM size must be positive, got {w} x {h}")
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    payload = blob[pos:]
    if len(payload) != 3 * w * h:
        what = "truncated" if len(payload) < 3 * w * h else "trailing bytes after"
        raise ValueError(f"{path}: {what} PPM payload")
    u8 = np.frombuffer(payload, dtype=np.uint8).reshape(h, w, 3)
    return (u8.astype(np.float32) / 255.0)


def _bilinear_taps(ys, xs, h, w):
    """The gather indices of the four neighbours and their float64 weights that
    sample an h x w image at rows `ys` and columns `xs`, two arrays that
    broadcast to the output grid. Each coordinate is first clamped into the image.
    """
    ys = np.clip(ys, 0, h - 1)
    xs = np.clip(xs, 0, w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    # a trailing axis, so the weights broadcast over the channels
    fy = (ys - y0)[..., None]
    fx = (xs - x0)[..., None]
    return y0, x0, y1, x1, fy, fx, 1 - fy, 1 - fx


def _bilinear(image, taps):
    """The float64 bilinear sum of an image's four gathered neighbours; the
    expression and its order are fixed, each term `v * wy * wx`."""
    y0, x0, y1, x1, fy, fx, gy, gx = taps
    return (
        image[y0, x0] * gy * gx
        + image[y0, x1] * gy * fx
        + image[y1, x0] * fy * gx
        + image[y1, x1] * fy * fx
    )


def resize_image(image, height, width):
    """Bilinear resize of an H x W x C image to height x width (pixel-center alignment).

    An exact 2x downscale puts every weight at 0.5, so it sums the four strided
    pixel grids in float64, in the gather's order, and scales by 0.25 once: a
    power-of-two scale commutes with float64 rounding here, so the bytes are the
    gather's. Other ratios gather the four neighbours of each pixel centre.
    """
    if height < 1 or width < 1:
        raise ValueError("target dimensions must be positive")
    image = np.asarray(image, dtype=np.float32)
    if image.ndim != 3 or image.shape[0] < 1 or image.shape[1] < 1:
        raise ValueError(f"expected an H x W x C image with H, W >= 1, got shape {image.shape}")
    h, w = image.shape[:2]
    if (h, w) == (2 * height, 2 * width):
        out = np.add(image[0::2, 0::2], image[0::2, 1::2], dtype=np.float64)
        out += image[1::2, 0::2]
        out += image[1::2, 1::2]
        out *= 0.25
        return out.astype(np.float32)
    ys = (np.arange(height) + 0.5) * h / height - 0.5
    xs = (np.arange(width) + 0.5) * w / width - 0.5
    # row coordinates as a column, so the taps gather the (height, width) grid
    return _bilinear(image, _bilinear_taps(ys[:, None], xs, h, w)).astype(np.float32)


# ---------------------------------------------------------------------------
# Synthetic data generation
# ---------------------------------------------------------------------------

@dataclass
class SynthConfig:
    n_users: int = 50
    n_restaurants: int = 10
    reviews_per_user: tuple[int, int] = (2, 4)
    images_per_review: tuple[int, int] = (1, 2)
    target_ratio: float = 6.0
    signal_strength: float = 0.8
    image_size: int = 32
    noise_sigma: float = 0.03
    seed: int = 0

    def __post_init__(self):
        if self.target_ratio <= 0:
            raise ValueError(f"target ratio must be positive, got {self.target_ratio}")
        if not 0.0 <= self.signal_strength <= 1.0:
            raise ValueError("signal strength must lie in [0, 1]")
        if self.n_users < 1 or self.n_restaurants < 1:
            raise ValueError("need at least one user and one restaurant")
        # every user writes a review and every review carries an image
        for name in ("reviews_per_user", "images_per_review"):
            lo, hi = getattr(self, name)
            if not 1 <= lo <= hi:
                raise ValueError(f"{name} must be a range (low, high) with 1 <= low <= high, "
                                 f"got ({lo}, {hi})")
        if self.image_size < 1:
            raise ValueError(f"image_size must be positive, got {self.image_size}")


def _restaurant_texture(size, rng):
    grid = rng.random((4, 4, 3)).astype(np.float32)
    tex = resize_image(grid, size, size)
    tex = 0.3 + 0.4 * tex
    return tex - tex.mean() + 0.5  # mean brightness 0.5 so the star shift is the signal


def _brightness_shift(stars):
    return 0.3 * (stars - 3) / 2.0


def generate_synthetic(config: SynthConfig, out_dir):
    """Write a deterministic synthetic manifest plus PPM images under out_dir.

    Each restaurant gets a seeded smooth texture and a latent quality; stars
    come from quality plus noise, thresholded so the realized positive to
    negative image ratio matches the target. Images mix the restaurant
    texture with a brightness shift monotone in stars, scaled by the signal
    strength, plus pixel noise.
    """
    out_dir = Path(out_dir)
    (out_dir / "images").mkdir(parents=True, exist_ok=True)
    size = config.image_size

    quality = make_rng(config.seed, "quality").random(config.n_restaurants)
    textures = [
        _restaurant_texture(size, make_rng(config.seed, f"texture:{r}"))
        for r in range(config.n_restaurants)
    ]

    # lay out reviews first so star labels can be calibrated globally
    plans = []  # (user, restaurant, latent score, n_images)
    for u in range(config.n_users):
        rng = make_rng(config.seed, f"user:{u}")
        lo, hi = config.reviews_per_user
        for _ in range(int(rng.integers(lo, hi + 1))):
            r = int(rng.integers(config.n_restaurants))
            # review noise dominates restaurant quality so labels are driven
            # by the per-image brightness signal, not memorizable identities
            s = quality[r] + 1.0 * rng.standard_normal()
            lo_i, hi_i = config.images_per_review
            n_img = int(rng.integers(lo_i, hi_i + 1))
            plans.append([u, r, s, n_img])

    total_images = sum(p[3] for p in plans)
    p_pos = config.target_ratio / (1.0 + config.target_ratio)
    order = sorted(range(len(plans)), key=lambda i: (plans[i][2], i))
    neg_budget = round((1.0 - p_pos) * total_images)
    negatives = []
    acc = 0
    for i in order:
        if acc >= neg_budget:
            break
        negatives.append(i)
        acc += plans[i][3]
    neg_set = set(negatives)

    # stars within each side follow latent-score rank
    neg_sorted = [i for i in order if i in neg_set]
    pos_sorted = [i for i in order if i not in neg_set]
    stars = {}
    for k, i in enumerate(neg_sorted):
        stars[i] = 1 + min(2, (3 * k) // max(1, len(neg_sorted)))
    for k, i in enumerate(pos_sorted):
        stars[i] = 4 + min(1, (2 * k) // max(1, len(pos_sorted)))

    records = []
    for idx, (u, r, _s, n_img) in enumerate(plans):
        review_id = f"rev{idx:05d}"
        st = stars[idx]
        shift = config.signal_strength * _brightness_shift(st)
        paths = []
        for j in range(n_img):
            rng = make_rng(config.seed, f"image:{review_id}:{j}")
            img = textures[r] + shift + config.noise_sigma * rng.standard_normal(
                (size, size, 3)).astype(np.float32)
            img = np.clip(img, 0.0, 1.0)
            rel = f"images/{review_id}_{j}.ppm"
            write_ppm(img, out_dir / rel)
            paths.append(rel)
        records.append(ReviewRecord(
            review_id=review_id,
            user_id=f"u{u:04d}",
            restaurant_id=f"r{r:03d}",
            stars=st,
            image_paths=paths,
        ))

    manifest_path = out_dir / "manifest.jsonl"
    save_manifest(records, manifest_path)
    return manifest_path, records


# ---------------------------------------------------------------------------
# Feature files
# ---------------------------------------------------------------------------

def save_feature_file(features: dict[str, np.ndarray], path):
    """Header line with the vector length, then one `path v1 v2 ...` per line."""
    if not features:
        raise ValueError("refusing to write an empty feature file")
    dims = {len(v) for v in features.values()}
    if len(dims) != 1:
        raise ValueError(f"inconsistent feature lengths: {sorted(dims)}")
    dim = dims.pop()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{dim}\n")
        for key in sorted(features):
            if any(ch.isspace() for ch in key):
                raise ValueError(f"image reference may not contain whitespace: {key!r}")
            vals = " ".join(repr(float(v)) for v in np.asarray(features[key], dtype=np.float32))
            fh.write(f"{key} {vals}\n")


def load_feature_file(path) -> dict[str, np.ndarray]:
    """Read a feature file `save_feature_file` wrote; a malformed one raises
    ValueError naming `path` or `path:line`."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        try:
            dim = int(header)
        except ValueError as exc:
            raise ValueError(f"{path}: bad feature-file header {header!r}") from exc
        if dim < 1:
            raise ValueError(f"{path}: feature length must be positive, got {dim}")
        features = {}
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            key, vals = parts[0], parts[1:]
            if len(vals) != dim:
                raise ValueError(
                    f"{path}:{lineno}: expected {dim} values, got {len(vals)}"
                )
            if key in features:
                raise ValueError(f"{path}:{lineno}: duplicate image reference {key!r}")
            try:
                with np.errstate(over="ignore"):  # overflow becomes inf, rejected below
                    vec = np.array(vals, dtype=np.float32)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if not np.isfinite(vec).all():
                raise ValueError(f"{path}:{lineno}: feature value not finite in float32")
            features[key] = vec
    if not features:
        raise ValueError(f"{path}: feature file has no rows")
    return features
