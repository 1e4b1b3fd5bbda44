import numpy as np
import pytest

from viscotv import netpbm
from viscotv.cli import load_image, load_mask, run, save_image


def write_bytes(tmp_path, name, payload):
    path = tmp_path / name
    path.write_bytes(payload)
    return path


class TestRead:
    def test_p2_values(self, tmp_path):
        path = write_bytes(tmp_path, "a.pgm", b"P2\n2 2\n255\n0 128\n255 64\n")
        img = netpbm.read(path)
        assert img.magic == "P2" and img.maxval == 255
        assert img.samples[:, :, 0].tolist() == [[0, 128], [255, 64]]
        field = load_image(path)
        assert np.allclose(
            field[:, :, 0], [[0.0, 0.50196], [1.0, 0.25098]], atol=1e-5
        )

    def test_p5_equals_p2(self, tmp_path):
        ascii_path = write_bytes(tmp_path, "a.pgm", b"P2\n2 2\n255\n0 128 255 64\n")
        binary_path = write_bytes(
            tmp_path, "b.pgm", b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64])
        )
        assert np.array_equal(load_image(ascii_path), load_image(binary_path))

    def test_comments_and_whitespace(self, tmp_path):
        payload = b"P2 # magic\n# a comment line\n 2\t1 # dims\n255\n7 9\n"
        img = netpbm.read(write_bytes(tmp_path, "c.pgm", payload))
        assert img.samples[:, :, 0].tolist() == [[7, 9]]

    def test_sixteen_bit_binary(self, tmp_path):
        samples = np.array([[0, 300], [65535, 12]], dtype=np.uint16)[:, :, None]
        path = tmp_path / "wide.pgm"
        netpbm.write(path, netpbm.NetpbmImage("P5", 65535, samples))
        back = netpbm.read(path)
        assert back.maxval == 65535
        assert np.array_equal(back.samples, samples)

    def test_p6_color(self, tmp_path):
        payload = b"P6\n1 2\n255\n" + bytes([1, 2, 3, 4, 5, 6])
        img = netpbm.read(write_bytes(tmp_path, "c.ppm", payload))
        assert img.channels == 3
        assert img.samples[1, 0].tolist() == [4, 5, 6]

    def test_empty_file(self, tmp_path):
        with pytest.raises(netpbm.NetpbmError) as err:
            netpbm.read(write_bytes(tmp_path, "e.pgm", b""))
        assert err.value.offset == 0

    def test_bad_magic(self, tmp_path):
        with pytest.raises(netpbm.NetpbmError):
            netpbm.read(write_bytes(tmp_path, "e.pgm", b"P7\n1 1\n255\n\x00"))

    def test_truncated_binary_payload_reports_offset(self, tmp_path):
        header = b"P5\n2 2\n255\n"
        path = write_bytes(tmp_path, "t.pgm", header + bytes([1, 2, 3]))
        with pytest.raises(netpbm.NetpbmError) as err:
            netpbm.read(path)
        assert "truncated" in str(err.value)
        assert err.value.offset == len(header) + 3

    def test_missing_ascii_samples(self, tmp_path):
        with pytest.raises(netpbm.NetpbmError):
            netpbm.read(write_bytes(tmp_path, "m.pgm", b"P2\n2 2\n255\n1 2 3\n"))

    def test_maxval_bounds(self, tmp_path):
        with pytest.raises(netpbm.NetpbmError):
            netpbm.read(write_bytes(tmp_path, "m.pgm", b"P2\n1 1\n0\n0\n"))
        with pytest.raises(netpbm.NetpbmError):
            netpbm.read(write_bytes(tmp_path, "m.pgm", b"P2\n1 1\n70000\n0\n"))

    @pytest.mark.parametrize(
        "payload,message",
        [
            (b"P2\n2 2\n", "unexpected end of file while reading maxval"),
            (b"P2\n0 2\n255\n", "invalid dimensions 0x2"),
            (b"P2\n2 0\n255\n", "invalid dimensions 2x0"),
            # The token ends at the comment, so the raster would start at '#'.
            (b"P5\n1 1\n255#c\n\x07", "expected single whitespace after maxval"),
            # Header fields are separate tokens, the magic number included.
            (b"P51 1\n255\n\x07", r"after the magic number \(byte offset 2\)"),
        ],
    )
    def test_header_errors(self, tmp_path, payload, message):
        with pytest.raises(netpbm.NetpbmError, match=message):
            netpbm.read(write_bytes(tmp_path, "h.pnm", payload))

    def test_sample_exceeding_maxval(self, tmp_path):
        with pytest.raises(netpbm.NetpbmError):
            netpbm.read(write_bytes(tmp_path, "m.pgm", b"P2\n1 1\n255\n300\n"))

    def test_non_integer_header(self, tmp_path):
        with pytest.raises(netpbm.NetpbmError):
            netpbm.read(write_bytes(tmp_path, "m.pgm", b"P2\nx 2\n255\n0 0\n"))

    def test_comment_inside_plain_raster(self, tmp_path):
        plain = netpbm.read(write_bytes(tmp_path, "a.ppm", b"P3\n2 1\n255\n1 2 3\n4 5 6\n"))
        commented = netpbm.read(
            write_bytes(tmp_path, "b.ppm", b"P3\n2 1\n255\n1 2#x 9\n3# y\n4 5 6#z")
        )
        assert commented.samples.tolist() == plain.samples.tolist()
        assert plain.samples.dtype == commented.samples.dtype == np.uint16

    def test_random_plain_files_read_their_samples(self, tmp_path):
        seps = [b" ", b"\t", b"\n", b"\r\n", b"\x0b", b"\x0c"]
        seps += [b" # note\n", b"#\n", b"\n#a#b\n "]
        rng = np.random.default_rng(11)
        for trial in range(40):
            magic, channels = [(b"P2", 1), (b"P3", 3)][trial % 2]
            maxval = int(rng.choice([1, 255, 65535]))
            h, w = rng.integers(1, 6, size=2)
            samples = rng.integers(0, maxval + 1, size=(h, w, channels))
            tokens = [magic, b"%d" % w, b"%d" % h, b"%d" % maxval]
            tokens += [b"%d" % v for v in samples.ravel()]
            payload = b"".join(token + seps[rng.integers(len(seps))] for token in tokens)
            if trial % 3 == 0:
                payload += b"#no newline"
            img = netpbm.read(write_bytes(tmp_path, "r.pnm", payload))
            assert (img.magic, img.maxval) == (magic.decode(), maxval)
            assert np.array_equal(img.samples, samples)

    def test_bad_sample_reports_offset_before_it(self, tmp_path):
        payload = b"P2\n3 1\n255\n1 #c\n2 x3\n"
        with pytest.raises(netpbm.NetpbmError, match="x3") as err:
            netpbm.read(write_bytes(tmp_path, "b.pgm", payload))
        assert err.value.offset == payload.index(b" x3")

    @pytest.mark.parametrize("token", [b"+5", b"5_0", b"-0", b"-3", b"0x1"])
    def test_tokens_are_ascii_decimal(self, tmp_path, token):
        for payload in (b"P2\n1 1\n255\n" + token + b"\n", b"P2\n1 1\n" + token + b"\n0\n"):
            with pytest.raises(netpbm.NetpbmError, match="expected an integer"):
                netpbm.read(write_bytes(tmp_path, "t.pgm", payload))

    @pytest.mark.parametrize(
        "payload",
        [
            b"P2\n1 1\n255\n70000\n",
            b"P2\n1 1\n255\n" + str(10**23).encode() + b"\n",
            b"P2\n1000000 1000000\n255\n0 0 0\n",
        ],
        ids=["above-65535", "above-int64", "header-claims-1e12-samples"],
    )
    def test_unrepresentable_plain_files_exit_one(self, tmp_path, payload, capsys):
        path = write_bytes(tmp_path, "big.pgm", payload)
        with pytest.raises(netpbm.NetpbmError):
            netpbm.read(path)
        assert run(["--input", str(path), "--output", str(tmp_path / "o.pgm")]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestWrite:
    @pytest.mark.parametrize(
        "magic,maxval,samples,expected",
        [
            ("P3", 255, [[[1, 2, 3], [4, 5, 6]]], b"P3\n2 1\n255\n1 2 3 4 5 6\n"),
            ("P2", 65535, [[[0], [65535]], [[7], [300]]], b"P2\n2 2\n65535\n0 65535\n7 300\n"),
            ("P2", 1, [[[1]]], b"P2\n1 1\n1\n1\n"),
            ("P6", 65535, [[[1, 256, 65535]]], b"P6\n1 1\n65535\n\0\1\1\0\xff\xff"),
        ],
    )
    def test_exact_bytes(self, tmp_path, magic, maxval, samples, expected):
        path = tmp_path / "w.pnm"
        image = netpbm.NetpbmImage(magic, maxval, np.array(samples, dtype=np.uint16))
        netpbm.write(path, image)
        assert path.read_bytes() == expected
        assert netpbm.read(path).samples.tolist() == samples

    @pytest.mark.parametrize("magic,channels", [("P2", 1), ("P3", 3)])
    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_plain_bytes_match_a_per_value_join(self, tmp_path, magic, channels, maxval):
        rng = np.random.default_rng(maxval)
        for h, w in [(1, 1), (7, 5), (2, 9)]:
            samples = rng.integers(0, maxval + 1, size=(h, w, channels)).astype(np.uint16)
            path = tmp_path / "w.pnm"
            netpbm.write(path, netpbm.NetpbmImage(magic, maxval, samples))
            rows = [" ".join(str(v) for v in row) for row in samples.reshape(h, -1).tolist()]
            expected = f"{magic}\n{w} {h}\n{maxval}\n" + "\n".join(rows) + "\n"
            assert path.read_bytes() == expected.encode()


    @pytest.mark.parametrize(
        "image,message",
        [
            (netpbm.NetpbmImage("P7", 255, np.zeros((1, 1, 1), np.uint16)), "unsupported magic"),
            (netpbm.NetpbmImage("P3", 255, np.zeros((1, 1, 1), np.uint16)), "expects 3 channel"),
            (netpbm.NetpbmImage("P5", 255, np.array([[[256]]])), "samples out of range"),
            (netpbm.NetpbmImage("P2", 255, np.array([[[-1]]])), "samples out of range"),
            (netpbm.NetpbmImage("P5", 255, np.zeros((0, 5, 1), np.uint16)), "dimensions 5x0"),
            (netpbm.NetpbmImage("P6", 255, np.zeros((2, 0, 3), np.uint16)), "dimensions 0x2"),
            (netpbm.NetpbmImage("P5", 255, np.array([[[7.9]]])), "integer dtype"),
        ],
    )
    def test_malformed_image_rejected(self, tmp_path, image, message):
        with pytest.raises(ValueError, match=message):
            netpbm.write(tmp_path / "w.pnm", image)

    @pytest.mark.parametrize("magic", ["P2", "P5"])
    @pytest.mark.parametrize("maxval", [0, 65536, 70000])
    def test_maxval_out_of_range_rejected(self, tmp_path, magic, maxval):
        # Unchecked, a P5 sample of 70000 would wrap to 4464 in two bytes.
        image = netpbm.NetpbmImage(magic, maxval, np.array([[[maxval]]], dtype=np.uint32))
        with pytest.raises(ValueError, match=rf"maxval {maxval} out of range \(1\.\.65535\)"):
            netpbm.write(tmp_path / "w.pnm", image)


class TestRoundTrip:
    @pytest.mark.parametrize("magic,channels", [("P5", 1), ("P6", 3)])
    def test_binary_save_load_bit_identical(self, tmp_path, magic, channels):
        rng = np.random.default_rng(0)
        samples = rng.integers(0, 256, size=(9, 7, channels)).astype(np.uint16)
        src = tmp_path / "src.pnm"
        netpbm.write(src, netpbm.NetpbmImage(magic, 255, samples))
        field = load_image(src)
        dst = tmp_path / "dst.pnm"
        save_image(dst, field, magic, 255)
        assert src.read_bytes() == dst.read_bytes()

    def test_quantization_rounds_half_to_even(self, tmp_path):
        # both 127.5 and 128.5 land on the even value 128
        path = tmp_path / "q.pgm"
        u = np.array([[[127.5 / 255.0], [128.5 / 255.0]]])
        save_image(path, u, "P5", 255)
        assert netpbm.read(path).samples[:, :, 0].tolist() == [[128, 128]]

    def test_save_clamps_range(self, tmp_path):
        path = tmp_path / "c.pgm"
        save_image(path, np.array([[[-0.2], [1.7]]]), "P5", 255)
        assert netpbm.read(path).samples[:, :, 0].tolist() == [[0, 255]]


class TestMask:
    def test_threshold_checkerboard(self, tmp_path):
        payload = b"P2\n2 2\n255\n128 0\n0 128\n"
        path = write_bytes(tmp_path, "m.pgm", payload)
        mask = load_mask(path, (2, 2, 1))
        assert mask.tolist() == [[True, False], [False, True]]

    @pytest.mark.parametrize(
        "maxval, row, damaged",
        [
            (1, b"1 0 1 0", [True, False, True, False]),
            (255, b"127 128 0 255", [False, True, False, True]),
            (65535, b"200 32767 32768 65535", [False, False, True, True]),
        ],
    )
    def test_threshold_is_half_maxval(self, tmp_path, maxval, row, damaged):
        path = write_bytes(tmp_path, "m.pgm", b"P2\n4 2\n%d\n%s 0 0 0 0\n" % (maxval, row))
        mask = load_mask(path, (2, 4, 1))
        assert mask.tolist() == [damaged, [False] * 4]

    def test_all_zero_is_pure_denoising(self, tmp_path):
        path = write_bytes(tmp_path, "m.pgm", b"P2\n2 2\n255\n0 0 0 0\n")
        assert not load_mask(path, (2, 2, 1)).any()

    def test_all_bright_rejected(self, tmp_path):
        path = write_bytes(tmp_path, "m.pgm", b"P2\n2 2\n255\n255 255 255 255\n")
        with pytest.raises(ValueError, match="entire domain"):
            load_mask(path, (2, 2, 1))

    def test_dimension_mismatch(self, tmp_path):
        path = write_bytes(tmp_path, "m.pgm", b"P2\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(ValueError, match="mask is"):
            load_mask(path, (3, 3, 1))

    def test_color_mask_rejected(self, tmp_path):
        path = write_bytes(tmp_path, "m.ppm", b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(ValueError, match="grayscale"):
            load_mask(path, (1, 1, 1))
