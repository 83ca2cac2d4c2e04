#ifndef POSTBLOCK_DB_PAGE_IMAGE_H_
#define POSTBLOCK_DB_PAGE_IMAGE_H_

#include <cstdint>
#include <deque>
#include <vector>

namespace postblock::db {

/// Content registry bridging the database's real 4 KiB page bytes and
/// the device simulator's 64-bit payload tokens.
///
/// The flash substrate models page *contents* as one token per page (a
/// deliberate simulation choice, see DESIGN.md): physically, whatever
/// token a read returns corresponds to bytes that are still in the
/// cells. This registry is that correspondence — every image ever
/// written is retained under its token, exactly as the charge remains in
/// a flash page until erase. The database stores bytes here, writes the
/// token through the block stack, and resolves whatever token a later
/// read returns (possibly an older version after a crash) back to bytes.
class PageImageStore {
 public:
  /// Registers one page image, returning its token (never 0; token 0 is
  /// the "never written / trimmed" all-zeroes page).
  std::uint64_t Register(std::vector<std::uint8_t> bytes) {
    images_.push_back(std::move(bytes));
    return images_.size();
  }

  /// Bytes for a token previously returned by Register. Token 0 or an
  /// unknown token yields nullptr (callers substitute a zero page).
  const std::vector<std::uint8_t>* Fetch(std::uint64_t token) const {
    return token == 0 || token > images_.size() ? nullptr
                                                : &images_[token - 1];
  }

  std::size_t size() const { return images_.size(); }

 private:
  /// Image of token t at t - 1: tokens are issued densely from 1, and a
  /// deque keeps earlier images in place as it grows.
  std::deque<std::vector<std::uint8_t>> images_;
};

}  // namespace postblock::db

#endif  // POSTBLOCK_DB_PAGE_IMAGE_H_
