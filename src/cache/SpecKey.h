//===- cache/SpecKey.h - Structural cache key for cspecs -------*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Derives a structural identity for one instantiation request: a canonical
/// byte fingerprint of the cspec — node kinds, types, operators, vspec ids,
/// bound run-time constants (`$` values), captured free-variable and callee
/// addresses — plus the Context's vspec table, the return type, and every
/// CompileOptions knob that changes generated code.
///
/// The spec part is one forward pass over the Context's nodes in creation
/// order (Context::forEachNode) from ordinal 0 up to the root: a record
/// holds each node's identity fields and `$` payload, and each child is
/// the varint distance back to its ordinal (0 = null). Factories build
/// children before parents, so every link points backwards into bytes
/// already written, and equal keys mean equal nodes and equal links at
/// every ordinal up to the root. Nodes the root cannot reach are part of
/// the key too; they can only turn a hit into a miss.
///
/// Two instantiation requests with equal SpecKeys produce byte-identical
/// machine code, even when their trees were built by different Contexts:
/// instantiation is a pure function of exactly the facts serialized here.
/// Specs the pass cannot describe exactly are marked not Cacheable and
/// always compile: `$`-at-instantiation over memory (rtEval of a load or
/// free variable), whose embedded immediate depends on what memory holds
/// *when the walk runs*; and trees rewired after construction so that a
/// child's ordinal is not below its parent's, or a child lives in another
/// Context.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_CACHE_SPECKEY_H
#define TICKC_CACHE_SPECKEY_H

#include "core/Compile.h"
#include "core/Context.h"

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

namespace tcc {
namespace cache {

/// Immutable key bytes. Copies share one buffer, so a resident key is
/// stored once however many tables (cache entry, shard map, tier slots)
/// hold it.
class KeyBytes {
public:
  KeyBytes() = default;
  KeyBytes(const std::uint8_t *Data, std::size_t Size);

  const std::uint8_t *data() const { return Buf.get(); }
  std::size_t size() const { return Size; }

  bool operator==(const KeyBytes &O) const {
    return Size == O.Size &&
           (Buf == O.Buf || std::memcmp(data(), O.data(), Size) == 0);
  }

private:
  std::shared_ptr<const std::uint8_t[]> Buf;
  std::size_t Size = 0;
};

/// The memoization key: canonical bytes plus their precomputed hash.
struct SpecKey {
  /// Empty when !Cacheable: such a key is never looked up, and only its
  /// Hash (which names the compiled symbol) is read.
  KeyBytes Bytes;
  std::uint64_t Hash = 0;
  /// False when the spec's generated code can depend on instantiation-time
  /// memory contents (rtEval over loads), or when the tree was rewired out
  /// of creation order; never memoized.
  bool Cacheable = true;

  bool operator==(const SpecKey &O) const {
    return Hash == O.Hash && Bytes == O.Bytes;
  }
};

/// Hasher for unordered containers: the hash is already computed.
struct SpecKeyHash {
  std::size_t operator()(const SpecKey &K) const {
    return static_cast<std::size_t>(K.Hash);
  }
};

/// Fingerprints one instantiation request: one pass over the spec's nodes
/// in creation order and one hash pass over the bytes. Publishes the key
/// size (cache.key_bytes) and the cycles it took (cache.key.cycles).
SpecKey buildSpecKey(const core::Context &Ctx, core::Stmt Body,
                     core::EvalType RetType,
                     const core::CompileOptions &Opts);

/// One canonical external reference of a spec, in first-occurrence
/// creation order. Kind is the ExprKind byte (FreeVar or Call) so the same
/// numeric address captured both as data and as a callee never aliases.
struct ExtRef {
  std::uint8_t Kind = 0;
  std::uint64_t Addr = 0;
  bool operator==(const ExtRef &O) const {
    return Kind == O.Kind && Addr == O.Addr;
  }
};

/// Address-independent identity for persistent snapshot records. Canonical
/// bytes are serialized exactly like SpecKey except each captured address
/// is replaced by the ordinal of its first occurrence, with the addresses
/// themselves collected into Refs. Two processes that build the same tree
/// over ASLR-relocated globals therefore produce the same PersistKey bytes
/// with different Refs — the pairing the loader uses to re-point imm64
/// relocation slots (old address at ordinal i → this process's address at
/// ordinal i).
struct PersistKey {
  std::vector<std::uint8_t> Bytes;
  std::uint64_t Hash = 0;
  std::vector<ExtRef> Refs;
  /// Mirrors SpecKey::Cacheable; uncacheable specs are never persisted.
  bool Cacheable = true;
};

/// Builds the address-independent persistence identity (one extra pass
/// over the nodes; only taken on in-memory cache misses when a snapshot is
/// open).
PersistKey buildPersistKey(const core::Context &Ctx, core::Stmt Body,
                           core::EvalType RetType,
                           const core::CompileOptions &Opts);

} // namespace cache
} // namespace tcc

#endif // TICKC_CACHE_SPECKEY_H
