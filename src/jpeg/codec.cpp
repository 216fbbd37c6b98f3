#include "jpeg/codec.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "jpeg/huffman.h"
#include "jpeg/quant_tables.h"
#include "jpeg/zigzag.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sysnoise::jpeg {

const char* vendor_name(DecoderVendor v) {
  switch (v) {
    case DecoderVendor::kPillow: return "Pillow";
    case DecoderVendor::kOpenCV: return "OpenCV";
    case DecoderVendor::kFFmpeg: return "FFmpeg";
    case DecoderVendor::kDALI: return "DALI";
  }
  return "?";
}

VendorTraits vendor_traits(DecoderVendor v) {
  VendorTraits t;
  switch (v) {
    case DecoderVendor::kPillow:
      t.idct = IdctMethod::kFloatReference;
      t.fancy_chroma_upsample = true;
      t.color_convert = VendorTraits::ColorConvert::kFloatLround;
      break;
    case DecoderVendor::kOpenCV:
      t.idct = IdctMethod::kFixedPoint13;
      t.fancy_chroma_upsample = true;
      t.color_convert = VendorTraits::ColorConvert::kFixedPoint16;
      break;
    case DecoderVendor::kFFmpeg:
      t.idct = IdctMethod::kFloatAan;
      t.fancy_chroma_upsample = false;
      t.color_convert = VendorTraits::ColorConvert::kFixedPoint16;
      break;
    case DecoderVendor::kDALI:
      t.idct = IdctMethod::kFixedPoint9;
      t.fancy_chroma_upsample = false;
      t.color_convert = VendorTraits::ColorConvert::kShift8;
      break;
  }
  return t;
}

void rgb_to_ycbcr(std::uint8_t r8, std::uint8_t g8, std::uint8_t b8, float& y,
                  float& cb, float& cr) {
  const float r = r8, g = g8, b = b8;
  y = 0.299f * r + 0.587f * g + 0.114f * b;
  cb = -0.168736f * r - 0.331264f * g + 0.5f * b + 128.0f;
  cr = 0.5f * r - 0.418688f * g - 0.081312f * b + 128.0f;
}

namespace {

int ceil_div(int a, int b) { return (a + b - 1) / b; }

// ---------------------------------------------------------------------------
// Marker-level byte emission
// ---------------------------------------------------------------------------

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
}

void put_marker(std::vector<std::uint8_t>& out, std::uint8_t code) {
  out.push_back(0xFF);
  out.push_back(code);
}

void put_dqt(std::vector<std::uint8_t>& out, int table_id, const QuantTable& q) {
  put_marker(out, 0xDB);
  put_u16(out, 2 + 1 + 64);
  out.push_back(static_cast<std::uint8_t>(table_id));  // 8-bit precision
  for (int i = 0; i < 64; ++i)
    out.push_back(static_cast<std::uint8_t>(q[static_cast<std::size_t>(kZigZag[static_cast<std::size_t>(i)])]));
}

void put_dht(std::vector<std::uint8_t>& out, int clazz, int table_id,
             const HuffSpec& spec) {
  put_marker(out, 0xC4);
  put_u16(out, static_cast<std::uint16_t>(2 + 1 + 16 + spec.symbols.size()));
  out.push_back(static_cast<std::uint8_t>((clazz << 4) | table_id));
  for (auto c : spec.counts) out.push_back(c);
  for (auto s : spec.symbols) out.push_back(s);
}

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

struct BlockCodec {
  HuffEncoder dc;
  HuffEncoder ac;
};

void encode_block(BitWriter& bw, const float* samples /*8x8 level-shifted*/,
                  const QuantTable& q, int& dc_pred, const BlockCodec& codec) {
  float coef[64];
  fdct8x8(samples, coef);

  int quantized[64];
  for (int i = 0; i < 64; ++i) {
    const float qv = static_cast<float>(q[static_cast<std::size_t>(i)]);
    quantized[i] = static_cast<int>(std::lround(coef[i] / qv));
  }

  // DC: differential.
  const int diff = quantized[0] - dc_pred;
  dc_pred = quantized[0];
  const int dc_cat = bit_category(diff);
  bw.put_bits(codec.dc.code(dc_cat), codec.dc.length(dc_cat));
  bw.put_bits(value_bits(diff, dc_cat), dc_cat);

  // AC: run-length of zeros in zig-zag order.
  int run = 0;
  for (int k = 1; k < 64; ++k) {
    const int v = quantized[kZigZag[static_cast<std::size_t>(k)]];
    if (v == 0) {
      ++run;
      continue;
    }
    while (run > 15) {
      bw.put_bits(codec.ac.code(0xF0), codec.ac.length(0xF0));  // ZRL
      run -= 16;
    }
    const int cat = bit_category(v);
    const int sym = (run << 4) | cat;
    bw.put_bits(codec.ac.code(sym), codec.ac.length(sym));
    bw.put_bits(value_bits(v, cat), cat);
    run = 0;
  }
  if (run > 0) bw.put_bits(codec.ac.code(0x00), codec.ac.length(0x00));  // EOB
}

// Copy an 8x8 block (replicating past the border) and level-shift by -128.
void load_block(const Plane& p, int by, int bx, float out[64]) {
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x)
      out[y * 8 + x] = p.at_clamped(by + y, bx + x) - 128.0f;
}

}  // namespace

std::vector<std::uint8_t> encode(const ImageU8& rgb, const EncodeOptions& opts) {
  if (rgb.channels() != 3) throw std::invalid_argument("jpeg::encode: need RGB");
  const int h = rgb.height(), w = rgb.width();
  if (h <= 0 || w <= 0 || h > 65500 || w > 65500)
    throw std::invalid_argument("jpeg::encode: bad dimensions");

  // Color convert to planes.
  Plane py(h, w), pcb(h, w), pcr(h, w);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      rgb_to_ycbcr(rgb.at(y, x, 0), rgb.at(y, x, 1), rgb.at(y, x, 2),
                   py.at(y, x), pcb.at(y, x), pcr.at(y, x));

  const bool subsample = opts.chroma == ChromaMode::k420;
  Plane cb_s, cr_s;
  if (subsample) {
    const int ch = ceil_div(h, 2), cw = ceil_div(w, 2);
    cb_s = Plane(ch, cw);
    cr_s = Plane(ch, cw);
    for (int y = 0; y < ch; ++y)
      for (int x = 0; x < cw; ++x) {
        // 2x2 box average with border replication.
        float scb = 0.0f, scr = 0.0f;
        for (int dy = 0; dy < 2; ++dy)
          for (int dx = 0; dx < 2; ++dx) {
            scb += pcb.at_clamped(2 * y + dy, 2 * x + dx);
            scr += pcr.at_clamped(2 * y + dy, 2 * x + dx);
          }
        cb_s.at(y, x) = scb * 0.25f;
        cr_s.at(y, x) = scr * 0.25f;
      }
  } else {
    cb_s = pcb;
    cr_s = pcr;
  }

  const QuantTable qy = scale_quality(annex_k_luminance(), opts.quality);
  const QuantTable qc = scale_quality(annex_k_chrominance(), opts.quality);

  std::vector<std::uint8_t> out;
  put_marker(out, 0xD8);  // SOI
  // APP0 / JFIF header.
  put_marker(out, 0xE0);
  put_u16(out, 16);
  const char jfif[5] = {'J', 'F', 'I', 'F', 0};
  out.insert(out.end(), jfif, jfif + 5);
  out.push_back(1);
  out.push_back(1);  // version 1.1
  out.push_back(0);  // aspect units
  put_u16(out, 1);
  put_u16(out, 1);
  out.push_back(0);
  out.push_back(0);  // no thumbnail

  put_dqt(out, 0, qy);
  put_dqt(out, 1, qc);

  // SOF0.
  put_marker(out, 0xC0);
  put_u16(out, 2 + 6 + 3 * 3);
  out.push_back(8);  // precision
  put_u16(out, static_cast<std::uint16_t>(h));
  put_u16(out, static_cast<std::uint16_t>(w));
  out.push_back(3);
  const std::uint8_t y_sampling = subsample ? 0x22 : 0x11;
  out.push_back(1);
  out.push_back(y_sampling);
  out.push_back(0);
  out.push_back(2);
  out.push_back(0x11);
  out.push_back(1);
  out.push_back(3);
  out.push_back(0x11);
  out.push_back(1);

  put_dht(out, 0, 0, std_dc_luminance());
  put_dht(out, 1, 0, std_ac_luminance());
  put_dht(out, 0, 1, std_dc_chrominance());
  put_dht(out, 1, 1, std_ac_chrominance());

  // SOS.
  put_marker(out, 0xDA);
  put_u16(out, 2 + 1 + 2 * 3 + 3);
  out.push_back(3);
  out.push_back(1);
  out.push_back(0x00);
  out.push_back(2);
  out.push_back(0x11);
  out.push_back(3);
  out.push_back(0x11);
  out.push_back(0);
  out.push_back(63);
  out.push_back(0);

  // Entropy-coded data.
  const BlockCodec lum{HuffEncoder(std_dc_luminance()), HuffEncoder(std_ac_luminance())};
  const BlockCodec chrom{HuffEncoder(std_dc_chrominance()),
                         HuffEncoder(std_ac_chrominance())};
  BitWriter bw;
  int dc_y = 0, dc_cb = 0, dc_cr = 0;
  float block[64];

  if (subsample) {
    const int mcus_y = ceil_div(h, 16), mcus_x = ceil_div(w, 16);
    for (int my = 0; my < mcus_y; ++my) {
      for (int mx = 0; mx < mcus_x; ++mx) {
        for (int by = 0; by < 2; ++by)
          for (int bx = 0; bx < 2; ++bx) {
            load_block(py, my * 16 + by * 8, mx * 16 + bx * 8, block);
            encode_block(bw, block, qy, dc_y, lum);
          }
        load_block(cb_s, my * 8, mx * 8, block);
        encode_block(bw, block, qc, dc_cb, chrom);
        load_block(cr_s, my * 8, mx * 8, block);
        encode_block(bw, block, qc, dc_cr, chrom);
      }
    }
  } else {
    const int mcus_y = ceil_div(h, 8), mcus_x = ceil_div(w, 8);
    for (int my = 0; my < mcus_y; ++my) {
      for (int mx = 0; mx < mcus_x; ++mx) {
        load_block(py, my * 8, mx * 8, block);
        encode_block(bw, block, qy, dc_y, lum);
        load_block(cb_s, my * 8, mx * 8, block);
        encode_block(bw, block, qc, dc_cb, chrom);
        load_block(cr_s, my * 8, mx * 8, block);
        encode_block(bw, block, qc, dc_cr, chrom);
      }
    }
  }
  bw.flush();
  const auto& entropy = bw.bytes();
  out.insert(out.end(), entropy.begin(), entropy.end());
  put_marker(out, 0xD9);  // EOI
  return out;
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

namespace {

struct ParsedJpeg {
  int height = 0, width = 0;
  bool subsampled = false;  // 4:2:0 vs 4:4:4
  QuantTable quant[2]{};
  HuffSpec dc_spec[2], ac_spec[2];
  std::size_t scan_begin = 0, scan_end = 0;  // entropy-coded byte range
};

std::uint16_t get_u16(const std::vector<std::uint8_t>& d, std::size_t pos) {
  return static_cast<std::uint16_t>((d[pos] << 8) | d[pos + 1]);
}

ParsedJpeg parse_headers(const std::vector<std::uint8_t>& d) {
  ParsedJpeg j;
  if (d.size() < 4 || d[0] != 0xFF || d[1] != 0xD8)
    throw std::runtime_error("jpeg::decode: missing SOI");
  std::size_t pos = 2;
  bool seen_sof = false;
  while (pos + 4 <= d.size()) {
    if (d[pos] != 0xFF) throw std::runtime_error("jpeg::decode: marker expected");
    const std::uint8_t code = d[pos + 1];
    pos += 2;
    if (code == 0xD9) break;  // EOI before SOS? malformed but stop
    const std::size_t len = get_u16(d, pos);
    const std::size_t seg_end = pos + len;
    if (len < 2 || seg_end > d.size())
      throw std::runtime_error("jpeg::decode: truncated segment");
    std::size_t p = pos + 2;
    // Every table read below stays inside its own segment.
    const auto need = [&](std::size_t n, const char* what) {
      if (n > seg_end - p)
        throw std::runtime_error(std::string("jpeg::decode: ") + what +
                                 " longer than its segment");
    };
    switch (code) {
      case 0xDB: {  // DQT (possibly multiple tables)
        while (p < seg_end) {
          need(65, "DQT table");
          const int pq = d[p] >> 4, tq = d[p] & 0x0F;
          if (pq != 0 || tq > 1) throw std::runtime_error("jpeg::decode: bad DQT");
          ++p;
          for (int i = 0; i < 64; ++i)
            j.quant[tq][static_cast<std::size_t>(kZigZag[static_cast<std::size_t>(i)])] = d[p + static_cast<std::size_t>(i)];
          p += 64;
        }
        break;
      }
      case 0xC0: {  // SOF0
        need(6, "SOF0 header");
        j.height = get_u16(d, p + 1);
        j.width = get_u16(d, p + 3);
        if (j.height == 0 || j.width == 0 ||
            std::int64_t{j.height} * j.width > kMaxFramePixels)
          throw std::runtime_error("jpeg::decode: frame " +
                                   std::to_string(j.width) + "x" +
                                   std::to_string(j.height) +
                                   " is empty or too large");
        const int ncomp = d[p + 5];
        if (ncomp != 3) throw std::runtime_error("jpeg::decode: need 3 components");
        need(6 + 3 * 3, "SOF0 component list");
        const std::uint8_t y_sampling = d[p + 7];
        j.subsampled = (y_sampling == 0x22);
        if (y_sampling != 0x22 && y_sampling != 0x11)
          throw std::runtime_error("jpeg::decode: unsupported sampling");
        seen_sof = true;
        break;
      }
      case 0xC4: {  // DHT (possibly multiple tables)
        while (p < seg_end) {
          need(17, "DHT counts");
          const int clazz = d[p] >> 4, id = d[p] & 0x0F;
          if (id > 1) throw std::runtime_error("jpeg::decode: bad DHT id");
          ++p;
          HuffSpec spec;
          int total = 0;
          for (int i = 0; i < 16; ++i) {
            spec.counts[static_cast<std::size_t>(i)] = d[p + static_cast<std::size_t>(i)];
            total += spec.counts[static_cast<std::size_t>(i)];
          }
          p += 16;
          need(static_cast<std::size_t>(total), "DHT symbols");
          spec.symbols.assign(d.begin() + static_cast<std::ptrdiff_t>(p),
                              d.begin() + static_cast<std::ptrdiff_t>(p + static_cast<std::size_t>(total)));
          p += static_cast<std::size_t>(total);
          if (clazz == 0)
            j.dc_spec[id] = spec;
          else
            j.ac_spec[id] = spec;
        }
        break;
      }
      case 0xDA: {  // SOS: header then entropy data until EOI
        j.scan_begin = seg_end;
        // Entropy data runs to the EOI marker (no restart markers emitted).
        std::size_t q = d.size();
        while (q >= 2 && !(d[q - 2] == 0xFF && d[q - 1] == 0xD9)) --q;
        if (q < 2) throw std::runtime_error("jpeg::decode: missing EOI");
        j.scan_end = q - 2;
        if (!seen_sof) throw std::runtime_error("jpeg::decode: SOS before SOF");
        return j;
      }
      default:
        break;  // skip APPn/COM/etc.
    }
    pos = seg_end;
  }
  throw std::runtime_error("jpeg::decode: no SOS marker");
}

void decode_block(BitReader& br, const HuffDecoder& dc, const HuffDecoder& ac,
                  const QuantTable& q, int& dc_pred, float coef_out[64]) {
  std::memset(coef_out, 0, 64 * sizeof(float));
  const int dc_cat = dc.decode(br);
  if (dc_cat < 0 || dc_cat > 11) throw std::runtime_error("jpeg::decode: bad DC symbol");
  const int diff = extend_value(br.read_bits(dc_cat), dc_cat);
  dc_pred += diff;
  coef_out[0] = static_cast<float>(dc_pred * q[0]);
  int k = 1;
  while (k < 64) {
    const int sym = ac.decode(br);
    if (sym < 0) throw std::runtime_error("jpeg::decode: bad AC symbol");
    if (sym == 0x00) break;  // EOB
    const int run = sym >> 4, cat = sym & 0x0F;
    if (cat == 0) {
      if (run != 15) throw std::runtime_error("jpeg::decode: bad AC run");
      k += 16;  // ZRL
      continue;
    }
    k += run;
    if (k >= 64) throw std::runtime_error("jpeg::decode: AC overflow");
    const int v = extend_value(br.read_bits(cat), cat);
    const int nat = kZigZag[static_cast<std::size_t>(k)];
    coef_out[nat] = static_cast<float>(v * q[static_cast<std::size_t>(nat)]);
    ++k;
  }
  if (br.overran()) throw std::runtime_error("jpeg::decode: truncated scan");
}

void store_block(Plane& p, int by, int bx, const float samples[64]) {
  for (int y = 0; y < 8; ++y) {
    const int py_ = by + y;
    if (py_ >= p.h) break;
    for (int x = 0; x < 8; ++x) {
      const int px_ = bx + x;
      if (px_ >= p.w) break;
      p.at(py_, px_) = samples[y * 8 + x] + 128.0f;
    }
  }
}

// Source columns of the triangle-filter (libjpeg "fancy") 2x chroma
// upsampling for output columns [0, w): the nearer chroma sample and its
// neighbour on the output column's side, clamped to the plane.
struct FancyColumns {
  std::vector<int> near, far;
  FancyColumns(int w, int plane_w)
      : near(static_cast<std::size_t>(w)), far(static_cast<std::size_t>(w)) {
    for (int ox = 0; ox < w; ++ox) {
      const int cx = ox >> 1;
      near[static_cast<std::size_t>(ox)] = std::min(cx, plane_w - 1);
      far[static_cast<std::size_t>(ox)] =
          std::clamp((ox & 1) ? cx + 1 : cx - 1, 0, plane_w - 1);
    }
  }
};

// One upsampled chroma row for output row `oy`:
// (9*c00 + 3*c01 + 3*c10 + c11) / 16 over the nearer/farther rows and
// columns, evaluated in that order.
void fancy_upsample_row(const Plane& c, int oy, const FancyColumns& cols,
                        float* out) {
  const int cy = oy >> 1;
  const int ny = std::clamp((oy & 1) ? cy + 1 : cy - 1, 0, c.h - 1);
  const float* r0 = &c.v[static_cast<std::size_t>(std::min(cy, c.h - 1)) * c.w];
  const float* r1 = &c.v[static_cast<std::size_t>(ny) * c.w];
  const int* near = cols.near.data();
  const int* far = cols.far.data();
  const std::size_t w = cols.near.size();
  for (std::size_t x = 0; x < w; ++x) {
    const float c00 = r0[near[x]], c01 = r0[far[x]];
    const float c10 = r1[near[x]], c11 = r1[far[x]];
    out[x] = (9.0f * c00 + 3.0f * c01 + 3.0f * c10 + c11) / 16.0f;
  }
}

std::uint8_t cc_float_lround(float v) {
  return clamp_u8(static_cast<int>(std::lround(v)));
}

// Convert one row of Y/Cb/Cr samples to interleaved RGB.
void color_convert_row(VendorTraits::ColorConvert mode, const float* yr,
                       const float* cbr, const float* crr, int w,
                       std::uint8_t* o) {
  switch (mode) {
    case VendorTraits::ColorConvert::kFloatLround:
      for (int x = 0; x < w; ++x, o += 3) {
        const float Y = yr[x];
        const float cb = cbr[x] - 128.0f, cr = crr[x] - 128.0f;
        o[0] = cc_float_lround(Y + 1.402f * cr);
        o[1] = cc_float_lround(Y - 0.344136f * cb - 0.714136f * cr);
        o[2] = cc_float_lround(Y + 1.772f * cb);
      }
      return;
    case VendorTraits::ColorConvert::kFixedPoint16:
      // libjpeg-style 16-bit fixed point on rounded integer samples.
      for (int x = 0; x < w; ++x, o += 3) {
        const int yi = static_cast<int>(std::lround(yr[x]));
        const int cb = static_cast<int>(std::lround(cbr[x])) - 128;
        const int cr = static_cast<int>(std::lround(crr[x])) - 128;
        constexpr int kHalf = 1 << 15;
        const int r = yi + ((91881 * cr + kHalf) >> 16);   // 1.40200 * 65536
        const int g = yi - ((22554 * cb + 46802 * cr + kHalf) >> 16);
        const int b = yi + ((116130 * cb + kHalf) >> 16);  // 1.77200 * 65536
        o[0] = clamp_u8(r);
        o[1] = clamp_u8(g);
        o[2] = clamp_u8(b);
      }
      return;
    case VendorTraits::ColorConvert::kShift8:
      // 8-bit constant approximation (HW accelerator style).
      for (int x = 0; x < w; ++x, o += 3) {
        const int yi = static_cast<int>(yr[x]);  // truncation, as cheap HW does
        const int cb = static_cast<int>(cbr[x]) - 128;
        const int cr = static_cast<int>(crr[x]) - 128;
        const int r = yi + ((359 * cr + 128) >> 8);
        const int g = yi - ((88 * cb + 183 * cr + 128) >> 8);
        const int b = yi + ((454 * cb + 128) >> 8);
        o[0] = clamp_u8(r);
        o[1] = clamp_u8(g);
        o[2] = clamp_u8(b);
      }
      return;
  }
}

}  // namespace

DecodedPlanes decode_planes(const std::vector<std::uint8_t>& bytes,
                            const VendorTraits& traits) {
  const ParsedJpeg j = parse_headers(bytes);
  const int h = j.height, w = j.width;

  const HuffDecoder dc_l(j.dc_spec[0]), ac_l(j.ac_spec[0]);
  const HuffDecoder dc_c(j.dc_spec[1]), ac_c(j.ac_spec[1]);

  const int ch = j.subsampled ? ceil_div(h, 2) : h;
  const int cw = j.subsampled ? ceil_div(w, 2) : w;
  // Planes padded to block multiples so store_block never splits.
  Plane py(ceil_div(h, j.subsampled ? 16 : 8) * (j.subsampled ? 16 : 8),
           ceil_div(w, j.subsampled ? 16 : 8) * (j.subsampled ? 16 : 8));
  Plane pcb(ceil_div(ch, 8) * 8, ceil_div(cw, 8) * 8);
  Plane pcr(ceil_div(ch, 8) * 8, ceil_div(cw, 8) * 8);

  BitReader br(bytes.data() + j.scan_begin, j.scan_end - j.scan_begin);
  int dpy = 0, dcb = 0, dcr = 0;
  float coef[64], samples[64];

  if (j.subsampled) {
    const int mcus_y = ceil_div(h, 16), mcus_x = ceil_div(w, 16);
    for (int my = 0; my < mcus_y; ++my)
      for (int mx = 0; mx < mcus_x; ++mx) {
        for (int by = 0; by < 2; ++by)
          for (int bx = 0; bx < 2; ++bx) {
            decode_block(br, dc_l, ac_l, j.quant[0], dpy, coef);
            idct8x8(traits.idct, coef, samples);
            store_block(py, my * 16 + by * 8, mx * 16 + bx * 8, samples);
          }
        decode_block(br, dc_c, ac_c, j.quant[1], dcb, coef);
        idct8x8(traits.idct, coef, samples);
        store_block(pcb, my * 8, mx * 8, samples);
        decode_block(br, dc_c, ac_c, j.quant[1], dcr, coef);
        idct8x8(traits.idct, coef, samples);
        store_block(pcr, my * 8, mx * 8, samples);
      }
  } else {
    const int mcus_y = ceil_div(h, 8), mcus_x = ceil_div(w, 8);
    for (int my = 0; my < mcus_y; ++my)
      for (int mx = 0; mx < mcus_x; ++mx) {
        decode_block(br, dc_l, ac_l, j.quant[0], dpy, coef);
        idct8x8(traits.idct, coef, samples);
        store_block(py, my * 8, mx * 8, samples);
        decode_block(br, dc_c, ac_c, j.quant[1], dcb, coef);
        idct8x8(traits.idct, coef, samples);
        store_block(pcb, my * 8, mx * 8, samples);
        decode_block(br, dc_c, ac_c, j.quant[1], dcr, coef);
        idct8x8(traits.idct, coef, samples);
        store_block(pcr, my * 8, mx * 8, samples);
      }
  }

  return {h, w, j.subsampled, std::move(py), std::move(pcb), std::move(pcr)};
}

ImageU8 planes_to_rgb(const DecodedPlanes& planes, const VendorTraits& traits) {
  // Upsample chroma and convert to RGB, one row at a time.
  const int h = planes.height, w = planes.width;
  const Plane &py = planes.y, &pcb = planes.cb, &pcr = planes.cr;
  const auto covers = [](const Plane& p, int ph, int pw) {
    return p.h >= ph && p.w >= pw &&
           p.v.size() == static_cast<std::size_t>(p.h) * p.w;
  };
  const int ch = planes.subsampled ? ceil_div(h, 2) : h;
  const int cw = planes.subsampled ? ceil_div(w, 2) : w;
  if (h <= 0 || w <= 0 || !covers(py, h, w) || !covers(pcb, ch, cw) ||
      pcr.h != pcb.h || pcr.w != pcb.w || !covers(pcr, ch, cw))
    throw std::invalid_argument("jpeg::planes_to_rgb: planes do not cover the image");
  ImageU8 out(h, w, 3);
  const FancyColumns cols(planes.subsampled && traits.fancy_chroma_upsample ? w : 0,
                          pcb.w);
  std::vector<float> cb_row(static_cast<std::size_t>(w)),
      cr_row(static_cast<std::size_t>(w));
  for (int y = 0; y < h; ++y) {
    const float* cbr = cb_row.data();
    const float* crr = cr_row.data();
    if (!planes.subsampled) {
      cbr = &pcb.v[static_cast<std::size_t>(y) * pcb.w];
      crr = &pcr.v[static_cast<std::size_t>(y) * pcr.w];
    } else if (traits.fancy_chroma_upsample) {
      fancy_upsample_row(pcb, y, cols, cb_row.data());
      fancy_upsample_row(pcr, y, cols, cr_row.data());
    } else {
      for (int x = 0; x < w; ++x) {
        cb_row[static_cast<std::size_t>(x)] = pcb.at(y >> 1, x >> 1);
        cr_row[static_cast<std::size_t>(x)] = pcr.at(y >> 1, x >> 1);
      }
    }
    color_convert_row(traits.color_convert,
                      &py.v[static_cast<std::size_t>(y) * py.w], cbr, crr, w,
                      out.data() + static_cast<std::size_t>(y) * w * 3);
  }
  return out;
}

ImageU8 decode_with_traits(const std::vector<std::uint8_t>& bytes,
                           const VendorTraits& traits) {
  ImageU8 out = planes_to_rgb(decode_planes(bytes, traits), traits);
  // Observational only: how many images the decoders produced, so a trace
  // shows whether a sweep shared its decodes.
  if (obs::trace_enabled()) obs::metrics().counter_add("jpeg.decode.images");
  return out;
}

ImageU8 decode(const std::vector<std::uint8_t>& bytes, DecoderVendor vendor) {
  return decode_with_traits(bytes, vendor_traits(vendor));
}

}  // namespace sysnoise::jpeg
