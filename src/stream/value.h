#ifndef DSSJ_STREAM_VALUE_H_
#define DSSJ_STREAM_VALUE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/logging.h"

namespace dssj::stream {

/// One field of a tuple. Opaque application payloads (e.g., records) travel
/// as shared_ptr<const void>; within one process that is a pointer copy, and
/// the communication model charges the payload's declared byte size when the
/// edge crosses simulated workers.
using Value = std::variant<int64_t, double, std::string, std::shared_ptr<const void>>;

/// The unit of data flowing through a topology. A tuple is an ordered list
/// of fields plus a serialized-size estimate used by the network accounting.
/// The first kInlineFields fields live inside the tuple, so building,
/// moving and dropping the shapes the join topology moves (at most four
/// fields) never touches the heap; wider tuples keep the rest in one heap
/// vector. Copyable (copies share opaque payloads); a moved-from tuple is
/// empty.
class Tuple {
 public:
  static constexpr size_t kInlineFields = 4;

  Tuple() noexcept {}
  explicit Tuple(std::vector<Value> values) : Tuple() {
    Reserve(values.size());
    for (Value& v : values) Append(std::move(v));
  }
  Tuple(const Tuple& other) : Tuple() { *this = other; }
  Tuple(Tuple&& other) noexcept { StealFrom(other); }
  Tuple& operator=(const Tuple& other) {
    if (this != &other) {
      Clear();
      Reserve(other.size_);
      for (size_t i = 0; i < other.size_; ++i) Append(other.field(i));
      payload_bytes_ = other.payload_bytes_;
    }
    return *this;
  }
  Tuple& operator=(Tuple&& other) noexcept {
    if (this != &other) {
      Clear();
      StealFrom(other);
    }
    return *this;
  }
  ~Tuple() { Clear(); }

  size_t num_fields() const { return size_; }
  const Value& field(size_t i) const {
    DCHECK_LT(i, size_);
    return i < kInlineFields ? *Slot(i) : (*overflow_)[i - kInlineFields];
  }

  int64_t Int(size_t i) const { return std::get<int64_t>(field(i)); }
  double Double(size_t i) const { return std::get<double>(field(i)); }
  const std::string& Str(size_t i) const { return std::get<std::string>(field(i)); }

  /// Typed view of an opaque payload field. The caller asserts the type; a
  /// mismatched cast is undefined behaviour exactly like static_pointer_cast.
  template <typename T>
  std::shared_ptr<const T> Ptr(size_t i) const {
    return std::static_pointer_cast<const T>(std::get<std::shared_ptr<const void>>(field(i)));
  }

  void Append(Value v) {
    if (size_ < kInlineFields) {
      new (Slot(size_)) Value(std::move(v));
    } else {
      if (overflow_ == nullptr) overflow_ = std::make_unique<std::vector<Value>>();
      overflow_->push_back(std::move(v));
    }
    ++size_;
  }

  /// Pre-sizes the heap overflow for a tuple wider than kInlineFields
  /// (frame decoding knows the count up front); a no-op otherwise.
  void Reserve(size_t n) {
    if (n <= kInlineFields) return;
    if (overflow_ == nullptr) overflow_ = std::make_unique<std::vector<Value>>();
    overflow_->reserve(n - kInlineFields);
  }

  /// Declares the wire size of opaque payload fields (bytes). Scalar and
  /// string fields are sized automatically; call this once per tuple whose
  /// payloads should count more than a pointer.
  void set_payload_bytes(size_t bytes) { payload_bytes_ = bytes; }
  size_t payload_bytes() const { return payload_bytes_; }

  /// Estimated bytes on the (simulated) wire: 8 per scalar, 4+len per
  /// string, declared payload bytes for opaque fields, plus a fixed header.
  size_t SerializedBytes() const {
    size_t bytes = 16;  // frame header
    for (size_t i = 0; i < size_; ++i) {
      if (const auto* s = std::get_if<std::string>(&field(i))) {
        bytes += 4 + s->size();
      } else {
        bytes += 8;
      }
    }
    return bytes + payload_bytes_;
  }

 private:
  Value* Slot(size_t i) { return reinterpret_cast<Value*>(inline_) + i; }
  const Value* Slot(size_t i) const { return reinterpret_cast<const Value*>(inline_) + i; }

  /// Destroys every field; keeps payload_bytes_ (assignment overwrites it).
  void Clear() noexcept {
    for (size_t i = 0; i < size_ && i < kInlineFields; ++i) Slot(i)->~Value();
    overflow_.reset();
    size_ = 0;
  }

  /// Takes `other`'s fields into this empty tuple and leaves `other` empty.
  void StealFrom(Tuple& other) noexcept {
    const size_t n = std::min(other.size_, kInlineFields);
    for (size_t i = 0; i < n; ++i) {
      new (Slot(i)) Value(std::move(*other.Slot(i)));
      other.Slot(i)->~Value();
    }
    overflow_ = std::move(other.overflow_);
    size_ = other.size_;
    payload_bytes_ = other.payload_bytes_;
    other.size_ = 0;
  }

  alignas(Value) unsigned char inline_[sizeof(Value) * kInlineFields];
  std::unique_ptr<std::vector<Value>> overflow_;  ///< fields [kInlineFields, size_)
  size_t size_ = 0;
  size_t payload_bytes_ = 0;
};

/// A batch of tuples travelling through the executor hot path as one unit.
/// Small-vector: up to kInlineCapacity tuples live inline (no heap
/// allocation for the common dispatcher fan-out of a handful of targets);
/// larger batches spill to a single heap block. Elements are always
/// contiguous, so iteration is pointer-based. Neither copyable nor
/// movable: an executor owns one batch and lends it to Bolt::ExecuteBatch
/// by reference, so the storage it grew is reused for every batch.
class TupleBatch {
 public:
  static constexpr size_t kInlineCapacity = 8;

  TupleBatch() noexcept : data_(InlineData()) {}
  TupleBatch(const TupleBatch&) = delete;
  TupleBatch& operator=(const TupleBatch&) = delete;

  ~TupleBatch() {
    clear();
    if (!IsInline()) ::operator delete(data_);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return capacity_; }

  Tuple& operator[](size_t i) {
    DCHECK_LT(i, size_);
    return data_[i];
  }
  const Tuple& operator[](size_t i) const {
    DCHECK_LT(i, size_);
    return data_[i];
  }

  Tuple* begin() { return data_; }
  Tuple* end() { return data_ + size_; }
  const Tuple* begin() const { return data_; }
  const Tuple* end() const { return data_ + size_; }

  void push_back(Tuple t) {
    if (size_ == capacity_) Grow(capacity_ * 2);
    new (data_ + size_) Tuple(std::move(t));
    ++size_;
  }

  void reserve(size_t n) {
    if (n > capacity_) Grow(n);
  }

  /// Destroys the elements but keeps the current storage (inline or heap),
  /// so a reused batch stops allocating after the first fill.
  void clear() {
    for (size_t i = 0; i < size_; ++i) data_[i].~Tuple();
    size_ = 0;
  }

 private:
  Tuple* InlineData() noexcept { return reinterpret_cast<Tuple*>(inline_); }
  bool IsInline() const noexcept { return data_ == reinterpret_cast<const Tuple*>(inline_); }

  void Grow(size_t new_capacity) {
    if (new_capacity < kInlineCapacity * 2) new_capacity = kInlineCapacity * 2;
    Tuple* fresh = static_cast<Tuple*>(::operator new(new_capacity * sizeof(Tuple)));
    for (size_t i = 0; i < size_; ++i) {
      new (fresh + i) Tuple(std::move(data_[i]));
      data_[i].~Tuple();
    }
    if (!IsInline()) ::operator delete(data_);
    data_ = fresh;
    capacity_ = new_capacity;
  }

  Tuple* data_;
  size_t size_ = 0;
  size_t capacity_ = kInlineCapacity;
  alignas(Tuple) unsigned char inline_[sizeof(Tuple) * kInlineCapacity];
};

/// Builds a tuple from values with terse call sites:
/// MakeTuple(int64_t{1}, 2.0, std::string("x"), payload_ptr).
template <typename... Args>
Tuple MakeTuple(Args&&... args) {
  Tuple t;
  t.Reserve(sizeof...(Args));
  (t.Append(Value(std::forward<Args>(args))), ...);
  return t;
}

}  // namespace dssj::stream

#endif  // DSSJ_STREAM_VALUE_H_
