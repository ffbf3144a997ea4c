"""I/O round trips, augmentation group laws, resizing, the synthetic dataset
and checkpoint serialization."""

import math
import struct

import numpy as np
import pytest

from rrnet import dataio
from rrnet.dataio import (
    AUGMENT_NAMES,
    CheckpointError,
    DataFormatError,
    Sample,
    augment7,
    load_checkpoint,
    load_manifest_samples,
    read_mask,
    read_pgm,
    read_pgm_bytes,
    read_ppm,
    resize_bilinear,
    resize_nearest,
    resize_sample,
    sample_shape,
    save_checkpoint,
    synth_dataset,
    write_manifest,
    write_pgm,
    write_ppm,
)
from rrnet.network import NetworkConfig
from rrnet.tensor import NumericalError, Tensor


class TestNetpbm:
    def test_pgm_round_trip_quantization_bound(self, rng, tmp_path):
        values = rng.uniform(size=(9, 7))
        path = tmp_path / "m.pgm"
        write_pgm(path, values)
        back = read_pgm(path)
        assert back.shape == (9, 7)
        assert np.abs(back - values).max() <= 1.0 / 510.0

    def test_ppm_round_trip(self, rng, tmp_path):
        img = rng.uniform(size=(5, 8, 3))
        path = tmp_path / "i.ppm"
        write_ppm(path, img)
        back = read_ppm(path)
        assert back.shape == (5, 8, 3)
        assert np.abs(back - img).max() <= 1.0 / 510.0

    def test_pgm_byte_scaling(self, tmp_path):
        path = tmp_path / "two.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        m = read_pgm(path)
        assert m[0, 0] == 0.0 and m[0, 1] == 1.0
        assert m[1, 0] == pytest.approx(128 / 255, abs=1e-6)
        assert m[1, 1] == pytest.approx(64 / 255, abs=1e-6)

    def test_ppm_header_width_height_order(self, tmp_path):
        path = tmp_path / "i.ppm"
        path.write_bytes(b"P6 4 3 255\n" + bytes(range(36)))
        img = read_ppm(path)
        assert img.shape == (3, 4, 3)

    def test_header_comments_allowed(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n# another\n255\n" + bytes([10, 20]))
        assert read_pgm(path).shape == (1, 2)

    def test_bad_magic_reports_offset(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P4\n2 2\n255\n" + bytes(4))
        with pytest.raises(DataFormatError, match="byte 0"):
            read_pgm(path)

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(DataFormatError, match="truncated"):
            read_pgm(path)

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(DataFormatError, match="maxval"):
            read_pgm(path)

    def test_bad_header_token(self, tmp_path):
        path = tmp_path / "tok.pgm"
        path.write_bytes(b"P5\nwide 2\n255\n" + bytes(4))
        with pytest.raises(DataFormatError, match="token"):
            read_pgm(path)

    def test_mask_binarization_threshold(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P5\n4 1\n255\n" + bytes([0, 127, 128, 255]))
        mask = read_mask(path)
        assert np.array_equal(mask, [[0.0, 0.0, 1.0, 1.0]])

    def test_pgm_bytes_are_the_payload(self, tmp_path):
        path = tmp_path / "b.pgm"
        path.write_bytes(b"P5\n3 2\n255\n" + bytes([0, 1, 127, 128, 254, 255]))
        got = read_pgm_bytes(path)
        assert got.dtype == np.uint8 and got.tolist() == [[0, 1, 127], [128, 254, 255]]
        assert np.array_equal(read_pgm(path), got.astype(np.float32) / np.float32(255))
        assert np.array_equal(read_mask(path), (got >= 128).astype(np.float32))


# (header, parse outcome): the tokens, comments and whitespace the scan
# accepts, and every kind of malformed header with its message and offset
PNM_HEADERS = [
    (b"P5\n2 2\n255\n", (2, 2, 11)),
    (b"P5 2 1 255 ", (2, 1, 11)),
    (b"P5\t2\t1\t255\t", (2, 1, 11)),
    (b"P5\n002 001\n255\n", (2, 1, 15)),
    (b"P5\n# a\n2\n# b\n1\n# c\n255\n", (2, 1, 23)),  # a comment between every pair of tokens
    (b"P5  \n\n 2 \t 1\r\n255\n", (2, 1, 18)),
    (b"P5\r\n2 1\r\n255\r\n", (2, 1, 13)),  # one whitespace byte ends the header: the payload starts at \n
    (b"P5\n02 01\n0255\n", (2, 1, 14)),
    (b"P5\n1234567890 2\n255\n", (1234567890, 2, 20)),
    (b"P5\n+2 2\n255\n", (2, 2, 12)),
    # int() refuses more than 4,300 digits
    (b"P5\n" + b"1" * 5000 + b" 2\n255\n", f"bad header token {b'1' * 5000!r} in f.pgm at byte 3"),
    (b"P4\n2 2\n255\n", "expected P5 file, found b'P4' in f.pgm at byte 0"),
    (b"P5\nwide 2\n255\n", "bad header token b'wide' in f.pgm at byte 3"),
    (b"P5\n2 x2\n255\n", "bad header token b'x2' in f.pgm at byte 5"),
    (b"P5\n2#x 2\n255\n", "bad header token b'2#x' in f.pgm at byte 3"),
    (b"P5\n2 2\n65535\n", "unsupported maxval 65535 (only 255) in f.pgm at byte 2"),
    (b"P5\n2 2\n256\n", "unsupported maxval 256 (only 255) in f.pgm at byte 2"),
    (b"P5\n0 2\n255\n", "bad dimensions 0x2 in f.pgm at byte 2"),
    (b"P5\n-2 2\n255\n", "bad dimensions -2x2 in f.pgm at byte 2"),
    (b"P5", "truncated header in f.pgm at byte 2"),
    (b"P5\n2 2", "truncated header in f.pgm at byte 6"),
    (b"P5\n# only a comment", "truncated header in f.pgm at byte 19"),
    (b"P5\n2 2\n255", "missing whitespace after maxval in f.pgm at byte 10"),  # ends at EOF
    (b"P5 2 2 255", "missing whitespace after maxval in f.pgm at byte 10"),
]


def header_outcome(data, parse=dataio._parse_pnm_header):
    try:
        return parse(data, b"P5", "f.pgm")
    except DataFormatError as e:
        return str(e)


def scan_pnm_header(data, magic, path):
    """Reference parser: the header read byte by byte, token by token."""
    if data[:2] != magic:
        raise DataFormatError(f"expected {magic.decode()} file, found {data[:2]!r}", path, 0)
    pos = 2
    fields = []
    while len(fields) < 3:
        # skip whitespace and '#' comments between header tokens
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if not token:
            raise DataFormatError("truncated header", path, start)
        try:
            fields.append(int(token))
        except ValueError:
            raise DataFormatError(f"bad header token {token!r}", path, start) from None
    if pos >= len(data):
        raise DataFormatError("missing whitespace after maxval", path, pos)
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise DataFormatError(f"bad dimensions {width}x{height}", path, 2)
    if maxval != 255:
        raise DataFormatError(f"unsupported maxval {maxval} (only 255)", path, 2)
    return width, height, pos + 1


class TestPnmHeader:
    @pytest.mark.parametrize("data, want", PNM_HEADERS, ids=[repr(data[:24]) for data, _ in PNM_HEADERS])
    def test_outcome_message_and_offset(self, data, want):
        assert header_outcome(data) == want

    def test_reference_scan_gives_every_listed_outcome(self):
        got = [header_outcome(data, scan_pnm_header) for data, _ in PNM_HEADERS]
        assert got == [want for _, want in PNM_HEADERS]

    def test_random_headers_agree_with_the_reference_scan(self):
        rng = np.random.default_rng(25)
        alphabet = np.frombuffer(b" \t\r\n\x0b\x0c#0125x+-", dtype=np.uint8)
        for _ in range(20_000):
            data = b"P5" + rng.choice(alphabet, size=rng.integers(0, 15)).tobytes()
            assert header_outcome(data) == header_outcome(data, scan_pnm_header), data

    def test_header_ending_at_eof_leaves_the_payload_truncated(self, tmp_path):
        path = tmp_path / "empty.pgm"
        path.write_bytes(b"P5\n2 2\n255\n")
        with pytest.raises(DataFormatError) as info:
            read_pgm_bytes(path)
        assert str(info.value) == f"payload truncated: expected 4 bytes, found 0 in {path} at byte 11"


def asymmetric_sample(rng, h=6, w=6):
    image = rng.uniform(size=(h, w, 3)).astype(np.float32)
    image[0, 0] = 1.0  # break all symmetries
    image[0, 1] = 0.0
    mask = np.zeros((h, w), dtype=np.float32)
    mask[0, 0] = 1.0
    mask[2, 1] = 1.0
    return Sample(image=image, mask=mask, id="asym")


class TestAugment7:
    def test_eight_outputs_first_is_original(self, rng):
        s = asymmetric_sample(rng)
        out = augment7(s)
        assert len(out) == 8
        assert np.array_equal(out[0].image, s.image)
        assert np.array_equal(out[0].mask, s.mask)

    def test_flip_is_involution(self, rng):
        s = asymmetric_sample(rng)
        once = augment7(s)[AUGMENT_NAMES.index("flip")]
        twice = augment7(once)[AUGMENT_NAMES.index("flip")]
        assert np.array_equal(twice.image, s.image)
        assert np.array_equal(twice.mask, s.mask)

    def test_rot90_four_times_is_identity(self, rng):
        s = asymmetric_sample(rng)
        cur = s
        for _ in range(4):
            cur = augment7(cur)[AUGMENT_NAMES.index("rot90")]
        assert np.array_equal(cur.image, s.image)

    def test_outputs_pairwise_distinct_on_generic_sample(self, rng):
        s = asymmetric_sample(rng)
        hashes = {v.image.tobytes() for v in augment7(s)}
        assert len(hashes) == 8

    def test_image_and_mask_transform_together(self, rng):
        s = asymmetric_sample(rng)
        for v in augment7(s):
            # the bright marker pixel must stay aligned with its mask bit
            i, j = np.unravel_index(np.argmax(v.image[:, :, 0]), v.image.shape[:2])
            assert v.mask[i, j] == 1.0

    def test_non_square_rotations_swap_dims(self, rng):
        s = asymmetric_sample(rng, 4, 6)
        out = augment7(s)
        assert out[AUGMENT_NAMES.index("rot90")].image.shape == (6, 4, 3)
        assert out[AUGMENT_NAMES.index("rot180")].image.shape == (4, 6, 3)


class TestResize:
    def test_same_size_is_identity(self, rng):
        img = rng.uniform(size=(7, 5, 3)).astype(np.float32)
        assert np.array_equal(resize_bilinear(img, (7, 5)), img)
        assert np.array_equal(resize_nearest(img, (7, 5)), img)

    def test_constant_image_stays_constant(self):
        img = np.full((6, 6, 3), 0.37, dtype=np.float32)
        out = resize_bilinear(img, (13, 9))
        assert np.allclose(out, 0.37, atol=1e-6)

    def test_smooth_ramp_up_down_error_bound(self):
        # 2x up then 2x down of a linear ramp stays within one ramp step
        ramp = np.linspace(0.0, 1.0, 16, dtype=np.float64)[None, :].repeat(16, axis=0)
        up = resize_bilinear(ramp, (32, 32))
        down = resize_bilinear(up, (16, 16))
        step = 1.0 / 15.0
        assert np.abs(down - ramp).max() <= step

    def test_mask_binarity_preserved(self, rng):
        mask = (rng.uniform(size=(10, 10)) < 0.4).astype(np.float32)
        out = resize_nearest(mask, (224, 224))
        assert set(np.unique(out)) <= {0.0, 1.0}

    def test_zero_target_rejected(self, rng):
        with pytest.raises(ValueError, match="positive"):
            resize_bilinear(rng.uniform(size=(4, 4)), (0, 4))

    def test_resize_sample(self, rng):
        s = asymmetric_sample(rng)
        out = resize_sample(s, (12, 12))
        assert out.image.shape == (12, 12, 3)
        assert out.mask.shape == (12, 12)
        assert ((out.mask == 0.0) | (out.mask == 1.0)).all()


class TestSynthDataset:
    def test_deterministic(self):
        a = synth_dataset(6, seed=9, size=32)
        b = synth_dataset(6, seed=9, size=32)
        for x, y in zip(a, b):
            assert np.array_equal(x.image, y.image)
            assert np.array_equal(x.mask, y.mask)

    def test_mask_fraction_constraints(self):
        for seed in range(5):
            for s in synth_dataset(8, seed=seed, size=48):
                bm = s.mask.sum()
                assert 1 <= bm <= 0.5 * s.mask.size
                assert s.image.shape == (48, 48, 3) and s.mask.shape == (48, 48)
                assert ((s.mask == 0.0) | (s.mask == 1.0)).all()

    def test_shape_area_matches_analytic_within_perimeter(self, rng):
        for _ in range(60):
            spec = sample_shape(rng, 64)
            raster = spec.rasterize(64)
            inside = raster.sum()
            # clip loss at the borders only shrinks the raster; only check
            # shapes fully inside the canvas
            if inside == 0:
                continue
            ys, xs = np.nonzero(raster)
            if xs.min() == 0 or ys.min() == 0 or xs.max() == 63 or ys.max() == 63:
                continue
            if spec.kind == "ellipse":
                area = math.pi * spec.a * spec.b
                # Ramanujan's approximation
                a, b = spec.a, spec.b
                perimeter = math.pi * (3 * (a + b) - math.sqrt((3 * a + b) * (a + 3 * b)))
            else:
                area = 4.0 * spec.a * spec.b
                perimeter = 4.0 * (spec.a + spec.b)
            assert abs(inside - area) <= perimeter + 1.0

    def test_sample_count_validated(self):
        with pytest.raises(ValueError, match="n >= 1"):
            synth_dataset(0, seed=1)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        cfg = NetworkConfig(stage_channels=(2, 2, 3, 3, 3), decoder_width=4, input_size=(32, 32))
        from rrnet.network import init_network_params

        params = init_network_params(cfg, seed=7)
        path = tmp_path / "model.ck"
        save_checkpoint(params, cfg, path)
        entries, cfg2 = load_checkpoint(path)
        assert cfg2 == cfg
        assert list(entries) == list(params)
        for name, arr in entries.items():
            assert np.array_equal(arr, params[name].data)

    def test_predictions_identical_after_reload(self, tmp_path, rng):
        from rrnet.network import init_network_params, predict

        cfg = NetworkConfig(stage_channels=(2, 2, 3, 3, 3), decoder_width=4, input_size=(32, 32))
        params = init_network_params(cfg, seed=7)
        img = Tensor(rng.uniform(size=(32, 32, 3)).astype(np.float32))
        before = predict(img, params, cfg).map.data
        path = tmp_path / "model.ck"
        save_checkpoint(params, cfg, path)
        entries, cfg2 = load_checkpoint(path)
        params2 = init_network_params(cfg2, seed=0)
        for name, p in params2.items():
            p.data = entries[name]
        after = predict(img, params2, cfg2).map.data
        assert np.array_equal(before, after)

    def test_corrupting_payload_byte_detected(self, tmp_path):
        cfg = NetworkConfig(stage_channels=(1, 1, 1, 1, 1), decoder_width=2, input_size=(32, 32))
        path = tmp_path / "model.ck"
        save_checkpoint({"w": Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))}, cfg, path)
        blob = bytearray(path.read_bytes())
        blob[-6] ^= 0xFF  # a payload byte of the last entry
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.ck"
        path.write_bytes(b"NOTRRNET" + bytes(16))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_version_mismatch_mentions_resave(self, tmp_path):
        cfg = NetworkConfig()
        path = tmp_path / "model.ck"
        save_checkpoint({}, cfg, path)
        blob = bytearray(path.read_bytes())
        blob[8] = 9  # bump the little-endian version field
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="re-save"):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        cfg = NetworkConfig()
        path = tmp_path / "model.ck"
        save_checkpoint({"w": Tensor(np.ones((4, 4), dtype=np.float32))}, cfg, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 9])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "blob",
        [b"bogus=1\n", b"decoder_width=wide\n", b"pma=\xff\n"],
        ids=["unknown_key", "bad_value", "invalid_utf8"],
    )
    def test_bad_config_blob_is_checkpoint_error(self, tmp_path, blob):
        path = tmp_path / "model.ck"
        save_checkpoint({}, NetworkConfig(), path)
        data = path.read_bytes()
        (cfg_len,) = struct.unpack("<I", data[12:16])
        path.write_bytes(data[:12] + struct.pack("<I", len(blob)) + blob + data[16 + cfg_len :])
        with pytest.raises(CheckpointError, match="bad config"):
            load_checkpoint(path)

    def test_undecodable_entry_name_is_checkpoint_error(self, tmp_path):
        path = tmp_path / "model.ck"
        save_checkpoint({"w": Tensor(np.ones(2, dtype=np.float32))}, NetworkConfig(), path)
        data = bytearray(path.read_bytes())
        (cfg_len,) = struct.unpack("<I", data[12:16])
        data[16 + cfg_len + 4 + 2] = 0xFF  # the one byte of the name "w"
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="bad entry name"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, -np.inf, 1e39])
    def test_non_finite_entry_rejected_on_save_and_nothing_written(self, tmp_path, value):
        good = Tensor(np.ones(2, dtype=np.float32))
        bad = Tensor(np.array([0.5, value]), dtype=np.float64)
        path = tmp_path / "x.ck"
        path.write_bytes(b"previous")
        with pytest.raises(NumericalError, match="'head.b' holds NaN, infinite or beyond float32 range"):
            save_checkpoint({"w": good, "head.b": bad}, NetworkConfig(), path)
        assert path.read_bytes() == b"previous"
        with pytest.raises(NumericalError):
            save_checkpoint({"head.b": bad}, NetworkConfig(), tmp_path / "new.ck")
        assert not (tmp_path / "new.ck").exists()

    def test_empty_parameter_list_round_trips(self, tmp_path):
        cfg = NetworkConfig()
        path = tmp_path / "empty.ck"
        save_checkpoint({}, cfg, path)
        entries, cfg2 = load_checkpoint(path)
        assert entries == {}
        assert cfg2 == cfg


class TestManifest:
    def test_round_trip(self, tmp_path, rng):
        (tmp_path / "images").mkdir(), (tmp_path / "masks").mkdir()
        pairs = [("images/a.ppm", "masks/a.pgm"), ("images/b.ppm", "masks/b.pgm")]
        for img, msk in pairs:
            write_ppm(tmp_path / img, rng.uniform(size=(8, 8, 3)))
            write_pgm(tmp_path / msk, (rng.uniform(size=(8, 8)) < 0.5).astype(np.float64))
        write_manifest(tmp_path / "manifest.txt", pairs)
        samples = load_manifest_samples(tmp_path / "manifest.txt")
        assert [s.id for s in samples] == ["a", "b"]
        for s, (img, msk) in zip(samples, pairs):
            assert np.array_equal(s.image, read_ppm(tmp_path / img))
            assert np.array_equal(s.mask, read_mask(tmp_path / msk))

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("\nonly_one_field\n")
        with pytest.raises(DataFormatError, match="manifest line 2 must be 'image<TAB>mask'"):
            load_manifest_samples(path)

    @pytest.mark.parametrize("text", ["", "\n\n   \n"], ids=["no_lines", "blank_lines"])
    def test_manifest_without_samples_rejected_naming_it(self, tmp_path, text):
        path = tmp_path / "manifest.txt"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=f"no image<TAB>mask lines in {path}"):
            load_manifest_samples(path)

    def test_pair_of_different_sizes_names_its_line(self, tmp_path):
        write_ppm(tmp_path / "a.ppm", np.zeros((8, 8, 3)))
        write_pgm(tmp_path / "a.pgm", np.zeros((8, 8)))
        write_ppm(tmp_path / "b.ppm", np.zeros((8, 8, 3)))
        write_pgm(tmp_path / "b.pgm", np.zeros((4, 4)))
        path = tmp_path / "manifest.txt"
        path.write_text("a.ppm\ta.pgm\n\nb.ppm\tb.pgm\n")
        with pytest.raises(DataFormatError, match=r"manifest line 3: image \(8, 8\) and mask \(4, 4\)"):
            load_manifest_samples(path)
