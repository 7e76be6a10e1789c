#ifndef DSSJ_STREAM_VALUE_H_
#define DSSJ_STREAM_VALUE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <variant>

#include "common/logging.h"

namespace dssj::stream {

/// One field of a tuple: an integer, or an opaque application payload
/// (e.g., a record) as shared_ptr<const void>. Within one process a payload
/// is a pointer copy, and the communication model charges the payload's
/// declared byte size when the edge crosses simulated workers.
using Value = std::variant<int64_t, std::shared_ptr<const void>>;

/// The unit of data flowing through a topology: at most kMaxFields fields,
/// all held inside the tuple, plus a serialized-size estimate used by the
/// network accounting. Four fields cover every shape the join topology
/// moves (source [record, emit_us], dispatcher [record, flags, emit_us],
/// lane watermark [lane, frontier], result [4 x int]), so building, moving
/// and dropping a tuple never touches the heap. Copyable (copies share
/// opaque payloads); a moved-from tuple is empty.
class Tuple {
 public:
  static constexpr size_t kMaxFields = 4;

  Tuple() noexcept {}
  Tuple(const Tuple& other) : Tuple() { *this = other; }
  Tuple(Tuple&& other) noexcept { StealFrom(other); }
  Tuple& operator=(const Tuple& other) {
    if (this != &other) {
      Clear();
      for (size_t i = 0; i < other.size_; ++i) new (Slot(i)) Value(*other.Slot(i));
      size_ = other.size_;
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
    return *Slot(i);
  }

  int64_t Int(size_t i) const { return std::get<int64_t>(field(i)); }

  /// Typed view of an opaque payload field. The caller asserts the type; a
  /// mismatched cast is undefined behaviour exactly like static_pointer_cast.
  template <typename T>
  std::shared_ptr<const T> Ptr(size_t i) const {
    return std::static_pointer_cast<const T>(std::get<std::shared_ptr<const void>>(field(i)));
  }

  /// Appends a field. A fifth field is a programming error; wire decoding
  /// rejects a wider tuple before it builds one.
  void Append(Value v) {
    CHECK_LT(size_, kMaxFields) << "a tuple holds at most " << kMaxFields << " fields";
    new (Slot(size_)) Value(std::move(v));
    ++size_;
  }

  /// Declares the wire size of opaque payload fields (bytes). Call this once
  /// per tuple whose payloads should count more than a pointer.
  void set_payload_bytes(size_t bytes) { payload_bytes_ = bytes; }
  size_t payload_bytes() const { return payload_bytes_; }

  /// Estimated bytes on the (simulated) wire: a fixed header, 8 per field,
  /// plus the declared payload bytes.
  size_t SerializedBytes() const { return 16 + 8 * size_ + payload_bytes_; }

 private:
  Value* Slot(size_t i) { return reinterpret_cast<Value*>(fields_) + i; }
  const Value* Slot(size_t i) const { return reinterpret_cast<const Value*>(fields_) + i; }

  /// Destroys every field; keeps payload_bytes_ (assignment overwrites it).
  void Clear() noexcept {
    for (size_t i = 0; i < size_; ++i) Slot(i)->~Value();
    size_ = 0;
  }

  /// Takes `other`'s fields into this empty tuple and leaves `other` empty.
  void StealFrom(Tuple& other) noexcept {
    for (size_t i = 0; i < other.size_; ++i) {
      new (Slot(i)) Value(std::move(*other.Slot(i)));
      other.Slot(i)->~Value();
    }
    size_ = other.size_;
    payload_bytes_ = other.payload_bytes_;
    other.size_ = 0;
  }

  alignas(Value) unsigned char fields_[sizeof(Value) * kMaxFields];
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
/// MakeTuple(payload_ptr, int64_t{1}).
template <typename... Args>
Tuple MakeTuple(Args&&... args) {
  static_assert(sizeof...(Args) <= Tuple::kMaxFields, "a tuple holds at most four fields");
  Tuple t;
  (t.Append(Value(std::forward<Args>(args))), ...);
  return t;
}

}  // namespace dssj::stream

#endif  // DSSJ_STREAM_VALUE_H_
