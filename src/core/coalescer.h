#ifndef METACOMM_CORE_COALESCER_H_
#define METACOMM_CORE_COALESCER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "lexpress/record.h"

namespace metacomm::core {

/// One effective update produced by coalescing a batch: the folded
/// descriptor plus the indices of the batch items it subsumes. The
/// unit's position in the output preserves the queue position of its
/// first constituent, so per-entity ordering survives coalescing.
struct CoalescedUnit {
  lexpress::UpdateDescriptor update;
  /// Ascending indices into the input batch.
  std::vector<size_t> constituents;
  /// True when the unit folded to nothing: an entity both created and
  /// destroyed inside the batch (Add ... Delete) needs no propagation
  /// at all, only its constituents' completions.
  bool annihilated = false;
};

struct CoalesceResult {
  std::vector<CoalescedUnit> units;
  /// Input items folded into an earlier unit (batch size minus units).
  size_t coalesced_away = 0;
};

/// Folds redundant work in one FIFO batch of update descriptors.
///
/// Merge rules (per entity, identified by the value chain of
/// `key_attr` so renames extend the chain):
///   Add    + Modify -> Add    (new image = later's, explicit union)
///   Modify + Modify -> Modify (old = first's old, new = last's new)
///   Modify + Delete -> Delete (targeting the first's still-applied key)
///   Add    + Delete -> annihilated (nothing to propagate)
///   Delete + X, Add + Add     -> barrier: a fresh unit is started and
///                                ordered after the previous one.
///
/// Two descriptors only ever merge when they share source, schema and
/// conditional flag — conditional (Originator/LastUpdater, §5.4)
/// updates are never merged across originators, so reapplication
/// semantics are untouched.
/// The batch's descriptors are moved into the units.
CoalesceResult CoalesceBatch(std::vector<lexpress::UpdateDescriptor> batch,
                             const std::string& key_attr);

}  // namespace metacomm::core

#endif  // METACOMM_CORE_COALESCER_H_
