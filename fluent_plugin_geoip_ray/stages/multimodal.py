"""Multimodal column stages (driver-mandated extension).

Image/audio/video payloads are opaque ``binary`` columns with typed metadata
(a ``struct<format, width, height, ...>`` or plain columns).  The Ray-side
plumbing -- schemas, actor-pool signatures, small-batch sizing for large
binary rows, output layout -- is real and tested.  Decode is REAL for
24-bit BMP + binary PPM images (pure-numpy parsers), PNG (stdlib ``zlib``
inflate + spec unfiltering), JPEG both baseline and progressive SOF2
(``jpegc.py``: spec-based Huffman + batched IDCT, validated against real
libjpeg output and a bit-exact progressive/baseline cross-pin), and PCM
WAV audio (stdlib ``wave``), including nearest-neighbor resize, genuine
acoustic features, and DCT perceptual hashing (pHash) -- no imaging
library anywhere.  Arithmetic-coded JPEG and unknown formats fall back to
a clearly-marked deterministic stand-in (or ``NotImplementedError`` with
``strict=True``).  Video frame-sampling is REAL for MJPEG-in-AVI
(``avic.py``) and MP4/ISO BMFF sample tables (``mp4c.py``).

Usage pattern (the important part at 100 TB): binary rows are large, so these
stages run with SMALL ``batch_size`` (e.g. 64) and an actor pool whose
``concurrency x num_cpus`` is sized to heap, letting the object store spill
instead of worker heaps.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from . import avic, jpegc, mp4c

IMAGE_META_TYPE = pa.struct(
    [("format", pa.string()), ("width", pa.int32()), ("height", pa.int32())]
)


# --------------------------------------------------------------------------
# REAL codecs for container-friendly formats (pure numpy / stdlib -- no
# external imaging/audio libraries needed): 24-bit BMP, binary PPM (P6),
# PCM WAV, PNG (below) and baseline JPEG (jpegc.py).
# --------------------------------------------------------------------------

def encode_ppm(img: np.ndarray) -> bytes:
    """(h, w, 3) uint8 RGB -> binary PPM (P6)."""
    h, w, _ = img.shape
    return b"P6\n%d %d\n255\n" % (w, h) + img.astype(np.uint8).tobytes()


def decode_ppm(data: bytes) -> np.ndarray:
    """Binary PPM (P6, maxval 255, '#' comments allowed) -> (h, w, 3) uint8."""
    if not data.startswith(b"P6"):
        raise ValueError("not a P6 PPM")
    # header = magic + 3 whitespace-separated ints, comments start with '#'
    pos, fields = 2, []
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            pos = data.index(b"\n", pos) + 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        fields.append(int(data[start:pos]))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise ValueError(f"unsupported PPM maxval {maxval}")
    return np.frombuffer(data, np.uint8, count=h * w * 3, offset=pos).reshape(h, w, 3)


def encode_bmp(img: np.ndarray) -> bytes:
    """(h, w, 3) uint8 RGB -> 24-bit uncompressed BMP (BITMAPINFOHEADER,
    bottom-up rows, BGR order, 4-byte row padding)."""
    import struct

    h, w, _ = img.shape
    row_bytes = (w * 3 + 3) & ~3
    img_size = row_bytes * h
    header = struct.pack("<2sIHHI", b"BM", 54 + img_size, 0, 0, 54)
    dib = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, img_size, 2835, 2835, 0, 0)
    rows = np.zeros((h, row_bytes), dtype=np.uint8)
    rows[:, : w * 3] = img[::-1, :, ::-1].reshape(h, w * 3)  # bottom-up, BGR
    return header + dib + rows.tobytes()


def decode_bmp(data: bytes) -> np.ndarray:
    """24-bit uncompressed BMP -> (h, w, 3) uint8 RGB."""
    import struct

    if data[:2] != b"BM":
        raise ValueError("not a BMP")
    pixel_offset = struct.unpack_from("<I", data, 10)[0]
    _, w, h, _, bpp, comp = struct.unpack_from("<IiiHHI", data, 14)
    if bpp != 24 or comp != 0:
        raise ValueError(f"unsupported BMP (bpp={bpp}, compression={comp})")
    flip = h > 0
    h = abs(h)
    row_bytes = (w * 3 + 3) & ~3
    rows = np.frombuffer(data, np.uint8, count=row_bytes * h,
                         offset=pixel_offset).reshape(h, row_bytes)
    img = rows[:, : w * 3].reshape(h, w, 3)[:, :, ::-1]  # BGR -> RGB
    return img[::-1] if flip else img


def encode_png(img: np.ndarray) -> bytes:
    """(h, w, 3) uint8 RGB -> PNG: 8-bit truecolor, filter 0 scanlines, one
    zlib IDAT.  Stdlib ``struct``/``zlib`` only (PNG spec, RFC 2083)."""
    import struct
    import zlib

    h, w, _ = img.shape

    def chunk(tag: bytes, payload: bytes) -> bytes:
        return (struct.pack(">I", len(payload)) + tag + payload
                + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF))

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    raw = np.zeros((h, 1 + w * 3), np.uint8)
    raw[:, 1:] = img.astype(np.uint8).reshape(h, w * 3)
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(raw.tobytes(), 6))
            + chunk(b"IEND", b""))


def decode_png(data: bytes) -> np.ndarray:
    """PNG -> (h, w, 3) uint8 RGB.  Real decode per the PNG spec: chunk walk,
    zlib inflate, per-scanline unfilter (None/Sub/Up/Average/Paeth).  8-bit
    depth, color types 0/2/3/4/6, non-interlaced (the overwhelmingly common
    layout); grayscale replicates to RGB, alpha drops, palette looks up PLTE.
    Sub unfilters vectorized (per-lane cumsum mod 256); Average/Paeth are
    sequential by definition and loop per byte."""
    import struct
    import zlib

    if data[:8] != b"\x89PNG\r\n\x1a\n":
        raise ValueError("not a PNG")
    pos, idat, plte = 8, [], None
    w = h = ctype = None
    while pos + 8 <= len(data):
        (length,) = struct.unpack_from(">I", data, pos)
        tag = data[pos + 4:pos + 8]
        payload = data[pos + 8:pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            w, h, depth, ctype, _comp, _filt, interlace = struct.unpack(
                ">IIBBBBB", payload
            )
            if depth != 8:
                raise ValueError(f"unsupported PNG bit depth {depth}")
            if interlace:
                raise ValueError("interlaced PNG unsupported")
            if ctype not in (0, 2, 3, 4, 6):
                raise ValueError(f"unsupported PNG color type {ctype}")
        elif tag == b"PLTE":
            plte = np.frombuffer(payload, np.uint8).reshape(-1, 3)
        elif tag == b"IDAT":
            idat.append(payload)
        elif tag == b"IEND":
            break
    if w is None:
        raise ValueError("PNG missing IHDR")
    nch = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}[ctype]
    stride = w * nch
    raw = np.frombuffer(zlib.decompress(b"".join(idat)), np.uint8)
    if len(raw) != h * (1 + stride):
        raise ValueError("PNG IDAT length mismatch")
    raw = raw.reshape(h, 1 + stride)
    out = np.empty((h, stride), np.uint8)
    prev = np.zeros(stride, np.int32)
    for y in range(h):
        f = int(raw[y, 0])
        ln = raw[y, 1:].astype(np.int32)
        if f == 0:
            pass
        elif f == 1:  # Sub: per-lane cumsum mod 256
            ln = np.cumsum(ln.reshape(w, nch), axis=0, dtype=np.int64) % 256
            ln = ln.reshape(stride).astype(np.int32)
        elif f == 2:  # Up
            ln = (ln + prev) & 0xFF
        elif f == 3:  # Average
            for x in range(stride):
                a = ln[x - nch] if x >= nch else 0
                ln[x] = (ln[x] + ((int(a) + int(prev[x])) >> 1)) & 0xFF
        elif f == 4:  # Paeth
            for x in range(stride):
                a = int(ln[x - nch]) if x >= nch else 0
                b = int(prev[x])
                c = int(prev[x - nch]) if x >= nch else 0
                p = a + b - c
                da, db, dc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (da <= db and da <= dc) else (b if db <= dc else c)
                ln[x] = (ln[x] + pred) & 0xFF
        else:
            raise ValueError(f"bad PNG filter byte {f}")
        out[y] = ln.astype(np.uint8)
        prev = ln
    px = out.reshape(h, w, nch)
    if ctype == 2:
        return px
    if ctype == 6:
        return np.ascontiguousarray(px[:, :, :3])
    if ctype == 0:
        return np.repeat(px, 3, axis=2)
    if ctype == 4:
        return np.repeat(px[:, :, :1], 3, axis=2)
    if plte is None:
        raise ValueError("palette PNG missing PLTE")
    return plte[px[:, :, 0]]


def encode_wav(samples: np.ndarray, rate: int = 16000) -> bytes:
    """int16 mono samples -> PCM WAV bytes (stdlib wave)."""
    import io
    import wave

    buf = io.BytesIO()
    with wave.open(buf, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(rate)
        wf.writeframes(samples.astype("<i2").tobytes())
    return buf.getvalue()


def decode_wav(data: bytes):
    """PCM WAV bytes -> (samples float64 in [-1, 1], rate)."""
    import io
    import wave

    with wave.open(io.BytesIO(data), "rb") as wf:
        rate = wf.getframerate()
        n = wf.getnframes()
        width = wf.getsampwidth()
        nchan = wf.getnchannels()
        raw = wf.readframes(n)
    if width == 2:
        arr = np.frombuffer(raw, "<i2").astype(np.float64) / 32768.0
    elif width == 1:
        arr = (np.frombuffer(raw, np.uint8).astype(np.float64) - 128.0) / 128.0
    else:
        raise ValueError(f"unsupported WAV sample width {width}")
    if nchan > 1:
        arr = arr.reshape(-1, nchan).mean(axis=1)
    return arr, rate


def resize_nearest(img: np.ndarray, out_hw: tuple) -> np.ndarray:
    """Nearest-neighbor resize (h, w, c) -> (out_h, out_w, c), pure numpy."""
    oh, ow = out_hw
    h, w = img.shape[:2]
    ri = (np.arange(oh) * h // oh).clip(0, h - 1)
    ci = (np.arange(ow) * w // ow).clip(0, w - 1)
    return img[ri][:, ci]


def sniff_format(data: bytes) -> str:
    if data[:2] == b"BM":
        return "bmp"
    if data[:2] == b"P6":
        return "ppm"
    if data[:4] == b"RIFF" and data[8:12] == b"WAVE":
        return "wav"
    if data[:8] == b"\x89PNG\r\n\x1a\n":
        return "png"
    if data[:2] == b"\xff\xd8":
        return "jpeg"
    return "unknown"


def synthesize_binary_table(n: int = 64, seed: int = 42,
                            payload_bytes: int = 4096,
                            real: bool = False,
                            formats: tuple = ("bmp", "ppm", "wav")) -> pa.Table:
    """Deterministic multimodal table for tests: ``media_id, payload
    (binary), media_meta (struct)``.

    ``real=False``: random opaque bytes labeled png/jpeg/wav (exercises the
    fallback path).  ``real=True``: genuine decodable payloads -- 24-bit
    BMPs, binary PPMs, PCM WAVs and (opt in via ``formats``) real zlib PNGs
    and real baseline JPEGs (4:4:4/4:2:0 + restart intervals, cycled per
    row) built by the encoders above/``jpegc`` -- so the decode stages run
    their REAL parsing code.  The default ``formats`` cycle is pinned (the
    multimodal golden oracle depends on it); pass e.g.
    ``("bmp", "ppm", "wav", "png", "jpeg")`` to include the compressed
    codecs."""
    rng = np.random.default_rng(seed)
    payloads, meta = [], []
    for i in range(n):
        w = 32 + (i % 4) * 16
        h = 32 + (i % 3) * 16
        if not real:
            payloads.append(
                rng.integers(0, 256, size=payload_bytes, dtype=np.uint8).tobytes()
            )
            meta.append({"format": ["png", "jpeg", "wav"][i % 3],
                         "width": w, "height": h})
            continue
        fmt = formats[i % len(formats)]

        def det_rgb():
            # shared deterministic pattern for every jpeg* branch (the
            # multimodal golden oracle pins these bytes)
            yy, xx = np.mgrid[0:h, 0:w]
            return np.stack([(yy * 3 + i) % 256, (xx * 5) % 256,
                             ((yy + xx) * 2) % 256], -1).astype(np.uint8)

        if fmt == "bmp":
            img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
            payloads.append(encode_bmp(img))
        elif fmt == "ppm":
            img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
            payloads.append(encode_ppm(img))
        elif fmt == "png":
            img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
            payloads.append(encode_png(img))
        elif fmt == "jpeg":
            payloads.append(jpegc.encode_jpeg(
                det_rgb(), quality=90, subsample=bool(i % 2),
                restart_interval=(i % 3)))
        elif fmt == "jpeg_progressive":
            payloads.append(jpegc.encode_jpeg_progressive(
                det_rgb(), quality=90, subsample=bool(i % 2),
                dc_al=i % 3, ac_al=i % 3))
            fmt = "jpeg"  # the stored format label; sniffing sees JFIF
        elif fmt == "jpeg_lossless":
            payloads.append(jpegc.encode_jpeg_lossless(
                det_rgb(), predictor=1 + i % 7, interleave=bool(i % 2)))
            fmt = "jpeg"  # sniffing sees JFIF
        else:
            samples = (rng.standard_normal(4000) * 8000).astype(np.int16)
            payloads.append(encode_wav(samples))
        meta.append({"format": fmt, "width": w, "height": h})
    return pa.table(
        {
            "media_id": pa.array(np.arange(n, dtype=np.int64)),
            "payload": pa.array(payloads, type=pa.binary()),
            "media_meta": pa.array(meta, type=IMAGE_META_TYPE),
        }
    )


class DecodeImage:
    """Actor-pool decode stage: payload bytes -> fixed-shape pixel tensor.

    REAL for 24-bit BMP, binary PPM, PNG, and every DCT-based or lossless
    T.81 JPEG process -- baseline, extended/12-bit, progressive, sequential
    + progressive arithmetic, lossless SOF3 (the codecs above plus
    ``jpegc.decode_jpeg``, then nearest-neighbor resize to ``out_hw``).
    Hierarchical / arithmetic-lossless JPEG (``jpegc`` raises
    NotImplementedError) and unknown formats fall back per ``strict``:
    ``strict=True`` raises NotImplementedError (honest production default),
    ``strict=False`` emits a deterministic fake tensor seeded from the
    payload's sha256 so downstream plumbing stays exercisable.

    The per-row loop is intentional: each row is ONE large binary payload
    whose decode is itself vectorized numpy -- rows per batch are few (size
    batches small for binary columns).
    """

    def __init__(self, out_hw: tuple = (8, 8), strict: bool = False):
        self.out_hw = out_hw
        self.strict = strict

    def _decode_one(self, data: bytes) -> np.ndarray:
        fmt = sniff_format(data)
        if fmt == "bmp":
            return resize_nearest(decode_bmp(data), self.out_hw)
        if fmt == "ppm":
            return resize_nearest(decode_ppm(data), self.out_hw)
        if fmt == "png":
            return resize_nearest(decode_png(data), self.out_hw)
        if fmt == "jpeg":
            try:
                return resize_nearest(jpegc.decode_jpeg(data), self.out_hw)
            except NotImplementedError:
                if self.strict:
                    raise
        if self.strict:
            raise NotImplementedError(
                f"decode of {fmt!r} requires an imaging library not present "
                "in this container; run with strict=False for the "
                "deterministic fake"
            )
        h, w = self.out_hw
        digest = hashlib.sha256(data).digest()
        seed = int.from_bytes(digest[:8], "little")
        return np.random.default_rng(seed).integers(
            0, 256, size=(h, w, 3), dtype=np.uint8
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        h, w = self.out_hw
        n = batch.num_rows
        payloads = batch.column("payload")
        if isinstance(payloads, pa.ChunkedArray):
            payloads = payloads.combine_chunks()
        pixels = np.empty((n, h * w * 3), dtype=np.uint8)
        for i in range(n):
            pixels[i] = self._decode_one(payloads[i].as_py() or b"").ravel()
        out = batch.append_column(
            "pixels",
            pa.FixedSizeListArray.from_arrays(
                pa.array(pixels.ravel(), type=pa.uint8()), h * w * 3
            ),
        )
        out = out.append_column("pix_h", pa.array(np.full(n, h, dtype=np.int32)))
        return out.append_column("pix_w", pa.array(np.full(n, w, dtype=np.int32)))


class DecodeAudio:
    """Actor-pool audio stage: PCM WAV payloads -> real acoustic features
    (duration, RMS, zero-crossing rate, peak) via the stdlib ``wave``
    decoder -- no external audio library needed.  Non-WAV rows yield null
    features (or raise with ``strict=True``)."""

    def __init__(self, strict: bool = False):
        self.strict = strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload")
        if isinstance(payloads, pa.ChunkedArray):
            payloads = payloads.combine_chunks()
        dur, rms, zcr, peak = [], [], [], []
        for i in range(batch.num_rows):
            data = payloads[i].as_py() or b""
            if sniff_format(data) != "wav":
                if self.strict:
                    raise NotImplementedError(
                        "non-WAV audio needs codec libraries absent here"
                    )
                dur.append(None), rms.append(None), zcr.append(None), peak.append(None)
                continue
            samples, rate = decode_wav(data)
            n = max(len(samples), 1)
            dur.append(len(samples) / rate)
            rms.append(float(np.sqrt(np.mean(samples**2))) if len(samples) else 0.0)
            zcr.append(float(np.mean(np.abs(np.diff(np.signbit(samples)))))
                       if len(samples) > 1 else 0.0)
            peak.append(float(np.max(np.abs(samples))) if len(samples) else 0.0)
        out = batch.append_column("audio_sec", pa.array(dur, pa.float64()))
        out = out.append_column("audio_rms", pa.array(rms, pa.float64()))
        out = out.append_column("audio_zcr", pa.array(zcr, pa.float64()))
        return out.append_column("audio_peak", pa.array(peak, pa.float64()))


class ExtractImageFeatures:
    """Pixel tensor -> small float feature vector (channel means/stds +
    16-bin histogram), fully vectorized.  This part is REAL -- it consumes
    whatever the decode stage produced."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        pix = batch.column("pixels")
        if isinstance(pix, pa.ChunkedArray):
            pix = pix.combine_chunks()
        flat = pix.flatten().to_numpy(zero_copy_only=False)
        n = batch.num_rows
        m = flat.reshape(n, -1).astype(np.float32)
        rgb = m.reshape(n, -1, 3)
        feats = np.concatenate(
            [
                rgb.mean(axis=1) / 255.0,
                rgb.std(axis=1) / 255.0,
                np.stack([np.histogram(m[i], bins=16, range=(0, 255))[0]
                          for i in range(n)]).astype(np.float32)
                / np.maximum(m.shape[1], 1),
            ],
            axis=1,
        )
        return batch.append_column(
            "features",
            pa.FixedSizeListArray.from_arrays(
                pa.array(feats.ravel(), type=pa.float32()), feats.shape[1]
            ),
        )


class SampleFrames:
    """Video frame sampling: one payload row -> every ``stride``-th frame row.

    REAL for MJPEG-in-AVI (``avic.extract_frames`` walks the RIFF container)
    and for MP4 (``mp4c.sample_ranges`` walks the ISO BMFF sample tables);
    emitted frames are standalone baseline JPEGs decodable downstream by
    ``DecodeImage`` when the codec is (M)JPEG -- H.264 payloads demux
    correctly but need an absent codec to decode.  Other containers:
    ``strict=True`` raises, otherwise the deterministic stand-in slices the
    payload into ``frame_size`` chunks -- same plumbing shape, clearly fake
    content."""

    def __init__(self, frame_size: int = 256, stride: int = 4,
                 strict: bool = False):
        self.frame_size, self.stride, self.strict = frame_size, stride, strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, frames, indices = [], [], []
        payloads = batch.column("payload")
        if isinstance(payloads, pa.ChunkedArray):
            payloads = payloads.combine_chunks()
        mids = batch.column("media_id").to_numpy(zero_copy_only=False)
        for i in range(batch.num_rows):
            data = payloads[i].as_py() or b""
            if avic.is_avi(data):
                for f, frame in enumerate(avic.extract_frames(data)):
                    if f % self.stride == 0:
                        ids.append(mids[i])
                        indices.append(f)
                        frames.append(frame)
                continue
            if mp4c.is_mp4(data):
                # real ISO BMFF demux (stsz/stsc/stco walk); payloads are
                # decodable downstream only for 'jpeg' sample entries
                for f, frame in enumerate(mp4c.extract_frames(data)):
                    if f % self.stride == 0:
                        ids.append(mids[i])
                        indices.append(f)
                        frames.append(frame)
                continue
            if self.strict:
                raise NotImplementedError(
                    "frame sampling of non-AVI/MP4 containers needs ffmpeg, "
                    "absent from this container"
                )
            n_frames = max(len(data) // self.frame_size, 1)
            for f in range(0, n_frames, self.stride):
                ids.append(mids[i])
                indices.append(f)
                frames.append(data[f * self.frame_size:(f + 1) * self.frame_size])
        return pa.table(
            {
                "media_id": pa.array(ids, type=pa.int64()),
                "frame_idx": pa.array(indices, type=pa.int32()),
                "frame": pa.array(frames, type=pa.binary()),
            }
        )


def decode_pipeline(ds, batch_size: int = 64, concurrency=(1, 4)):
    """decode -> feature-extract as actor pools with binary-safe batch size."""
    return ds.map_batches(
        DecodeImage,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
        concurrency=concurrency,
    ).map_batches(
        ExtractImageFeatures,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
        concurrency=concurrency,
    )


# ---------------------------------------------------------------------------
# Perceptual image hashing (pHash) + image near-dup
# ---------------------------------------------------------------------------

def _dct_mat(n: int) -> np.ndarray:
    """Orthonormal n-point DCT-II matrix (the classic pHash transform)."""
    x = np.arange(n)
    a = np.sqrt(2.0 / n) * np.cos((2 * x[None, :] + 1) * x[:, None]
                                  * np.pi / (2 * n))
    a[0, :] = np.sqrt(1.0 / n)
    return a


_DCT32 = _dct_mat(32)


def _box_resize(m: np.ndarray, oh: int, ow: int) -> np.ndarray:
    """Area-mean (box) downscale of a 2D float array -- the antialiasing
    resize pHash needs (nearest-neighbor sampling aliases high-frequency
    content and destroys hash stability under re-encoding)."""
    h, w = m.shape
    ri = np.arange(oh + 1) * h // oh
    ci = np.arange(ow + 1) * w // ow
    rows = np.add.reduceat(m, ri[:-1], axis=0)
    cells = np.add.reduceat(rows, ci[:-1], axis=1)
    return cells / np.outer(np.diff(ri), np.diff(ci))


def image_phash(rgb: np.ndarray, hash_size: int = 8) -> int:
    """64-bit DCT perceptual hash of an (h, w, 3) uint8 image (the public
    pHash construction: luma -> box-downscale to 32x32 -> 2D DCT -> sign
    of the top-left hash_size^2 low-frequency coefficients vs their
    median).  Stable under re-encoding / mild noise, far apart for
    distinct content."""
    luma = (0.299 * rgb[..., 0] + 0.587 * rgb[..., 1]
            + 0.114 * rgb[..., 2]).astype(np.float64)
    small = _box_resize(luma, 32, 32)
    d = _DCT32 @ small @ _DCT32.T
    low = d[:hash_size, :hash_size].ravel()
    med = np.median(low)
    bits = (low > med).astype(np.uint64)
    return int((bits << np.arange(hash_size * hash_size,
                                  dtype=np.uint64)).sum())


class PHashSketch:
    """Actor-pool callable: image payload rows -> the dedup sketch contract
    (key, sig FixedSizeList<int64>[1] = the 64-bit phash, bucket
    FixedSizeList<int64>[4] = 16-bit bands tagged with the band index) --
    the SAME table shape :func:`dedup.lsh_verified_edges` consumes, so
    image near-dup shares the text family's verified-edge machinery.

    Decode state (the codec dispatch) lives per actor; per row the decode
    itself is vectorized numpy (payloads are large, rows per batch few).
    """

    def __init__(self, key_col: str = "media_id",
                 payload_col: str = "payload", strict: bool = True):
        self.key_col, self.payload_col = key_col, payload_col
        self.decoder = DecodeImage(out_hw=(32, 32), strict=strict)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .dedup import _matrix_to_fixed_list

        payloads = batch.column(self.payload_col)
        n = batch.num_rows
        ph = np.empty(n, dtype=np.uint64)
        for i in range(n):
            rgb = self.decoder._decode_one(payloads[i].as_py() or b"")
            ph[i] = image_phash(rgb)
        bucket = np.empty((n, 4), dtype=np.int64)
        for b in range(4):
            band = ((ph >> np.uint64(16 * b)) & np.uint64(0xFFFF)).astype(
                np.int64)
            bucket[:, b] = (np.int64(b) << np.int64(48)) | band
        return pa.table({
            self.key_col: batch.column(self.key_col),
            "sig": _matrix_to_fixed_list(ph.astype(np.int64).reshape(-1, 1), 1),
            "bucket": _matrix_to_fixed_list(bucket, 4),
        })


def dedup_images(ds, key_col: str = "media_id", payload_col: str = "payload",
                 max_hamming: int = 10, strict: bool = True,
                 hot_bucket_limit: int = 2_000_000,
                 edge_driver_limit: int = 20_000_000):
    """Image near-dup removal by perceptual hash: decode + pHash in an
    actor pool, band-bucket candidates, XOR-popcount verification at
    ``max_hamming``, keep the min-key representative per connected group.

    Caveat (documented): 4x16-bit pigeonhole bucketing GUARANTEES a
    candidate only for hamming <= 3; above that it is best-effort LSH
    (same stance as ``dedup_simhash``).  Re-encodes of the same image
    land within a few bits; distinct structured content sits near ~32.
    """
    from .dedup import (
        _hamming64,
        _resolve_clusters_and_drop,
        lsh_verified_edges,
    )

    sketches = ds.map_batches(
        PHashSketch,
        fn_constructor_kwargs=dict(key_col=key_col, payload_col=payload_col,
                                   strict=strict),
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=(1, 8),
    ).materialize()

    def verify(sa: np.ndarray, sb: np.ndarray) -> np.ndarray:
        return _hamming64(sa[:, 0], sb[:, 0]) <= max_hamming

    edges = lsh_verified_edges(sketches, key_col, verify,
                               hot_bucket_limit=hot_bucket_limit)
    return _resolve_clusters_and_drop(ds, edges, key_col,
                                      edge_driver_limit=edge_driver_limit)


def smooth_test_image(i: int, h: int = 48, w: int = 64) -> np.ndarray:
    """Deterministic photo-like test image: low-res random noise upsampled
    and box-smoothed -> a dense low-frequency spectrum (what pHash keys
    on; pure sinusoids are adversarial -- sparse DCT puts most low-freq
    coefficients at the median and the sign bits turn into coin flips)."""
    rng = np.random.default_rng(1000 + i)
    base = rng.integers(30, 226, (6, 8, 3)).astype(np.float64)
    up = np.kron(base, np.ones((-(-h // 6), -(-w // 8), 1)))[:h, :w]
    k = np.ones(9) / 9
    for ax in (0, 1):
        up = np.apply_along_axis(
            lambda v: np.convolve(v, k, mode="same"), ax, up)
    return np.clip(up, 0, 255).astype(np.uint8)


def synthesize_image_corpus(n_base: int = 40, seed: int = 42) -> pa.Table:
    """Image-dedup fixture: ``n_base`` distinct smooth images as baseline
    q90 JPEGs (media_id 0..n-1) plus one progressive-q75 re-encode of each
    (media_id 10000+i).  Constructed so the dedup answer is PROVABLE:
    measured duplicate pHash hamming <= 2 (band collision guaranteed at
    <= 3 by pigeonhole) and distinct-pair hamming >= 14 > any sane
    threshold -- survivors are exactly the n_base originals."""
    ids, payloads = [], []
    for i in range(n_base):
        img = smooth_test_image(i)
        ids.append(i)
        payloads.append(jpegc.encode_jpeg(img, quality=90))
        ids.append(10000 + i)
        payloads.append(jpegc.encode_jpeg_progressive(img, quality=75))
    return pa.table({
        "media_id": pa.array(ids, pa.int64()),
        "payload": pa.array(payloads, pa.binary()),
    })


# ---------------------------------------------------------------------------
# Audio fingerprinting (Haitsma-Kalker-style) + audio near-dup
# ---------------------------------------------------------------------------

def audio_fingerprint_frames(samples: np.ndarray, frame: int = 2048,
                             hop: int = 512, bands: int = 17) -> np.ndarray:
    """Per-frame 16-bit audio fingerprint words (the public
    Haitsma-Kalker construction): windowed FFT -> log-spaced band
    energies -> sign of the time-and-band double difference.  GAIN
    INVARIANT by construction: scaling all samples multiplies every band
    energy by the same positive constant, leaving the difference signs
    unchanged -- the property the dedup known-answer relies on."""
    x = np.asarray(samples, dtype=np.float64)
    if len(x) < frame:
        x = np.pad(x, (0, frame - len(x)))
    n_frames = 1 + (len(x) - frame) // hop
    idx = np.arange(frame)[None, :] + hop * np.arange(n_frames)[:, None]
    win = np.hanning(frame)
    spec = np.abs(np.fft.rfft(x[idx] * win[None, :], axis=1)) ** 2
    # log-spaced band edges over [300 Hz-ish bin .. Nyquist)
    lo, hi = 8, spec.shape[1] - 1
    edges = np.unique(np.round(
        lo * (hi / lo) ** (np.arange(bands + 1) / bands)).astype(np.int64))
    e = np.add.reduceat(spec, edges[:-1], axis=1)[:, :bands]
    d = np.diff(e, axis=1)                       # band difference
    dd = d[1:] - d[:-1]                          # time difference
    bits = (dd > 0).astype(np.uint16)
    return (bits << np.arange(bits.shape[1], dtype=np.uint16)).sum(
        axis=1, dtype=np.uint16)


def audio_phash(samples: np.ndarray) -> int:
    """64-bit whole-clip signature: 4 evenly spaced 16-bit fingerprint
    words.  Exactly invariant to positive gain scaling; a few bits of
    jitter under int16 re-quantization (measured in tests)."""
    words = audio_fingerprint_frames(samples)
    if len(words) == 0:
        return 0
    pick = np.linspace(0, len(words) - 1, 4).astype(np.int64)
    w = words[pick].astype(np.uint64)
    return int(w[0] | (w[1] << np.uint64(16)) | (w[2] << np.uint64(32))
               | (w[3] << np.uint64(48)))


class AudioPHashSketch:
    """Actor-pool callable: WAV payload rows -> the dedup sketch contract
    (key, sig FixedSizeList<int64>[1], bucket FixedSizeList<int64>[4] of
    16-bit bands) -- audio near-dup rides the same verified-edge
    machinery as text/image."""

    def __init__(self, key_col: str = "media_id",
                 payload_col: str = "payload"):
        self.key_col, self.payload_col = key_col, payload_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .dedup import _matrix_to_fixed_list

        payloads = batch.column(self.payload_col)
        n = batch.num_rows
        ph = np.empty(n, dtype=np.uint64)
        for i in range(n):
            samples, _ = decode_wav(payloads[i].as_py() or b"")
            ph[i] = audio_phash(samples)
        bucket = np.empty((n, 4), dtype=np.int64)
        for b in range(4):
            band = ((ph >> np.uint64(16 * b)) & np.uint64(0xFFFF)).astype(
                np.int64)
            bucket[:, b] = (np.int64(b) << np.int64(48)) | band
        return pa.table({
            self.key_col: batch.column(self.key_col),
            "sig": _matrix_to_fixed_list(ph.astype(np.int64).reshape(-1, 1), 1),
            "bucket": _matrix_to_fixed_list(bucket, 4),
        })


def dedup_audio(ds, key_col: str = "media_id", payload_col: str = "payload",
                max_hamming: int = 6,
                hot_bucket_limit: int = 2_000_000,
                edge_driver_limit: int = 20_000_000):
    """Audio near-dup removal by spectral fingerprint: decode + fingerprint
    in an actor pool, band-bucket, XOR-popcount verification, min-key
    survivor -- :func:`dedup_images`'s shape over WAV payloads."""
    from .dedup import (
        _hamming64,
        _resolve_clusters_and_drop,
        lsh_verified_edges,
    )

    sketches = ds.map_batches(
        AudioPHashSketch,
        fn_constructor_kwargs=dict(key_col=key_col, payload_col=payload_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=(1, 8),
    ).materialize()

    def verify(sa: np.ndarray, sb: np.ndarray) -> np.ndarray:
        return _hamming64(sa[:, 0], sb[:, 0]) <= max_hamming

    edges = lsh_verified_edges(sketches, key_col, verify,
                               hot_bucket_limit=hot_bucket_limit)
    return _resolve_clusters_and_drop(ds, edges, key_col,
                                      edge_driver_limit=edge_driver_limit)


def synthesize_audio_clip(i: int, n: int = 16000,
                          rate: int = 16000) -> np.ndarray:
    """Deterministic test clip: a few random sinusoids + noise, int16."""
    rng = np.random.default_rng(500 + i)
    t = np.arange(n) / rate
    sig = np.zeros(n)
    for _ in range(6):
        f = rng.uniform(200, 3000)
        sig += rng.uniform(0.3, 1.0) * np.sin(
            2 * np.pi * f * t + rng.uniform(0, 6))
    sig += 0.05 * rng.standard_normal(n)
    return (sig / np.abs(sig).max() * 20000).astype(np.int16)


def synthesize_audio_corpus(n_base: int = 30, seed: int = 42) -> pa.Table:
    """Audio-dedup fixture: ``n_base`` distinct clips (media_id 0..n-1)
    plus a -6 dB gain-scaled re-quantized copy of each (media_id
    10000+i).  The fingerprint is gain-invariant by construction
    (difference signs); int16 re-quantization costs at most ~1 bit
    (measured), so with distinct-pair hamming >= 19 the survivors are
    provably the originals at max_hamming=6."""
    ids, payloads = [], []
    for i in range(n_base):
        s = synthesize_audio_clip(i)
        ids.append(i)
        payloads.append(encode_wav(s))
        half = (s.astype(np.int32) // 2).astype(np.int16)
        ids.append(10000 + i)
        payloads.append(encode_wav(half))
    return pa.table({
        "media_id": pa.array(ids, pa.int64()),
        "payload": pa.array(payloads, pa.binary()),
    })


# ---------------------------------------------------------------------------
# Video near-dup: frame-sampled perceptual-hash sequence
# ---------------------------------------------------------------------------

def video_phash_words(data: bytes, n_frames: int = 4) -> np.ndarray:
    """``n_frames`` evenly spaced per-frame 64-bit pHashes of an MJPEG-AVI
    or (M)JPEG-MP4 payload (real demux via the container walkers + real
    JPEG decode).  Fewer frames than requested repeat the last one, so the
    signature width is fixed."""
    if avic.is_avi(data):
        frames = avic.extract_frames(data)
    elif mp4c.is_mp4(data):
        frames = mp4c.extract_frames(data)
    else:
        raise NotImplementedError("video_phash needs an AVI or MP4 payload")
    if not frames:
        return np.zeros(n_frames, dtype=np.uint64)
    pick = np.linspace(0, len(frames) - 1, n_frames).astype(np.int64)
    out = np.empty(n_frames, dtype=np.uint64)
    for j, fi in enumerate(pick):
        out[j] = image_phash(jpegc.decode_jpeg(frames[fi]))
    return out


class VideoPHashSketch:
    """Actor-pool callable: video payload rows -> the dedup sketch
    contract with a WIDTH-4 signature (one 64-bit pHash per sampled
    frame).  Buckets = the FIRST frame's 16-bit bands, so a duplicate
    whose first-frame hamming is <= 3 is guaranteed a candidate
    (pigeonhole); verification compares ALL sampled frames."""

    def __init__(self, key_col: str = "media_id",
                 payload_col: str = "payload", n_frames: int = 4):
        self.key_col, self.payload_col = key_col, payload_col
        self.n_frames = n_frames

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .dedup import _matrix_to_fixed_list

        payloads = batch.column(self.payload_col)
        n = batch.num_rows
        sig = np.empty((n, self.n_frames), dtype=np.uint64)
        for i in range(n):
            sig[i] = video_phash_words(payloads[i].as_py() or b"",
                                       self.n_frames)
        first = sig[:, 0]
        bucket = np.empty((n, 4), dtype=np.int64)
        for b in range(4):
            band = ((first >> np.uint64(16 * b)) & np.uint64(0xFFFF)).astype(
                np.int64)
            bucket[:, b] = (np.int64(b) << np.int64(48)) | band
        return pa.table({
            self.key_col: batch.column(self.key_col),
            "sig": _matrix_to_fixed_list(sig.astype(np.int64), self.n_frames),
            "bucket": _matrix_to_fixed_list(bucket, 4),
        })


def dedup_videos(ds, key_col: str = "media_id", payload_col: str = "payload",
                 max_total_hamming: int = 24, n_frames: int = 4,
                 hot_bucket_limit: int = 2_000_000,
                 edge_driver_limit: int = 20_000_000):
    """Video near-dup removal: frame-sampled pHash sequence, bucketed on
    the first frame's bands, verified by TOTAL hamming over all sampled
    frames (<= ``max_total_hamming`` across ``n_frames`` x 64 bits)."""
    from .dedup import (
        _hamming64,
        _resolve_clusters_and_drop,
        lsh_verified_edges,
    )

    sketches = ds.map_batches(
        VideoPHashSketch,
        fn_constructor_kwargs=dict(key_col=key_col, payload_col=payload_col,
                                   n_frames=n_frames),
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=(1, 8),
    ).materialize()

    def verify(sa: np.ndarray, sb: np.ndarray) -> np.ndarray:
        total = np.zeros(len(sa), dtype=np.uint64)
        for j in range(sa.shape[1]):
            total += _hamming64(sa[:, j], sb[:, j])  # uint64 accumulator
        return total <= max_total_hamming

    edges = lsh_verified_edges(sketches, key_col, verify,
                               hot_bucket_limit=hot_bucket_limit)
    return _resolve_clusters_and_drop(ds, edges, key_col,
                                      edge_driver_limit=edge_driver_limit)


def synthesize_video_corpus(n_base: int = 12, frames_per: int = 8,
                            seed: int = 42) -> pa.Table:
    """Video-dedup fixture: ``n_base`` distinct MJPEG-AVI clips (smooth
    per-frame content drifting over time; media_id 0..n-1) plus a
    quality-75 re-encode of each (media_id 10000+i)."""
    ids, payloads = [], []
    h, w = 48, 64
    for i in range(n_base):
        frames_hi, frames_lo = [], []
        for f in range(frames_per):
            img = smooth_test_image(i * 100 + f, h, w)
            frames_hi.append(jpegc.encode_jpeg(img, quality=90))
            frames_lo.append(jpegc.encode_jpeg(img, quality=75))
        ids.append(i)
        payloads.append(avic.encode_avi(frames_hi, w, h))
        ids.append(10000 + i)
        payloads.append(avic.encode_avi(frames_lo, w, h))
    return pa.table({
        "media_id": pa.array(ids, pa.int64()),
        "payload": pa.array(payloads, pa.binary()),
    })
