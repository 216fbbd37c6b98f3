// Canonical Huffman coding for baseline JPEG (ITU-T T.81 Annex K tables),
// plus MSB-first bit I/O with 0xFF byte stuffing.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace sysnoise::jpeg {

// A Huffman table in the JPEG DHT wire form: 16 code-length counts and the
// symbol list in canonical order.
struct HuffSpec {
  std::array<std::uint8_t, 16> counts{};  // counts[i] = #codes of length i+1
  std::vector<std::uint8_t> symbols;
};

// Standard Annex K tables.
const HuffSpec& std_dc_luminance();
const HuffSpec& std_ac_luminance();
const HuffSpec& std_dc_chrominance();
const HuffSpec& std_ac_chrominance();

// Encoder-side table: symbol -> (code, length).
class HuffEncoder {
 public:
  explicit HuffEncoder(const HuffSpec& spec);
  std::uint16_t code(int symbol) const { return codes_[static_cast<std::size_t>(symbol)]; }
  int length(int symbol) const { return lengths_[static_cast<std::size_t>(symbol)]; }

 private:
  std::array<std::uint16_t, 256> codes_{};
  std::array<std::uint8_t, 256> lengths_{};
};

// Decoder-side table: canonical (MINCODE/MAXCODE/VALPTR) decoding as in
// T.81 Annex F.2.2.3.
class HuffDecoder {
 public:
  explicit HuffDecoder(const HuffSpec& spec);
  // Decode one symbol via bit-by-bit canonical walk.
  template <typename BitSource>
  int decode(BitSource& bits) const {
    int code = bits.read_bit();
    int length = 1;
    while (length <= 16 && code > maxcode_[static_cast<std::size_t>(length)]) {
      code = (code << 1) | bits.read_bit();
      ++length;
    }
    if (length > 16) return -1;  // corrupt stream
    const int idx = valptr_[static_cast<std::size_t>(length)] +
                    (code - mincode_[static_cast<std::size_t>(length)]);
    return symbols_[static_cast<std::size_t>(idx)];
  }

 private:
  std::array<int, 17> mincode_{};
  std::array<int, 17> maxcode_{};  // -1 where no codes of that length
  std::array<int, 17> valptr_{};
  std::vector<std::uint8_t> symbols_;
};

// MSB-first bit writer with JPEG byte stuffing (0xFF -> 0xFF 0x00).
class BitWriter {
 public:
  void put_bits(std::uint32_t value, int nbits);
  // Pad the final partial byte with 1-bits (T.81 F.1.2.3).
  void flush();
  const std::vector<std::uint8_t>& bytes() const { return out_; }
  std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  void emit_byte(std::uint8_t b);
  std::vector<std::uint8_t> out_;
  std::uint32_t acc_ = 0;
  int nbits_ = 0;
};

// MSB-first bit reader undoing byte stuffing. Reading past the end yields
// 0-bits and sets overran(): a complete scan never reads past its end.
class BitReader {
 public:
  BitReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  int read_bit();
  std::uint32_t read_bits(int n);
  bool overran() const { return overran_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::uint32_t acc_ = 0;
  int nbits_ = 0;
  bool overran_ = false;
};

// Magnitude category (number of bits) of a coefficient value, T.81 F.1.2.1.
int bit_category(int value);

// The `category`-bit representation of value (one's-complement for
// negatives), as appended after DC/AC Huffman symbols.
std::uint32_t value_bits(int value, int category);

// Inverse of value_bits: extend a raw category-bit pattern to a signed value.
int extend_value(std::uint32_t bits, int category);

}  // namespace sysnoise::jpeg
