#ifndef DOTPROV_CATALOG_DB_OBJECT_H_
#define DOTPROV_CATALOG_DB_OBJECT_H_

#include <string>
#include <vector>

namespace dot {

/// Kinds of placeable database objects (§2.2: "individual tables, indices,
/// temporary spaces or logs").
enum class ObjectKind {
  kTable,
  kPrimaryIndex,
  kSecondaryIndex,
  kTempSpace,
  kLog,
};

/// One placeable object o_i: a table, an index, temp space or a log file.
/// Sizes are in GB (s_i in the paper); pages assume the 8 KiB page size.
struct DbObject {
  int id = -1;
  std::string name;
  ObjectKind kind = ObjectKind::kTable;
  double size_gb = 0.0;

  /// Owning table's object id for indices; == id for tables; -1 otherwise.
  int table_id = -1;

  // --- table-only fields ---
  double num_rows = 0.0;
  double row_bytes = 0.0;

  // --- index-only fields ---
  /// B+-tree levels traversed on a root-to-leaf descent (root counts as 1).
  int height = 0;
  double leaf_pages = 0.0;

  bool IsIndex() const {
    return kind == ObjectKind::kPrimaryIndex ||
           kind == ObjectKind::kSecondaryIndex;
  }

  /// Total 8 KiB pages occupied by this object.
  double pages() const;
};

/// An object group g (§3.2): a table together with its indices. DOT assumes
/// placement interactions exist only *within* a group; `members` lists object
/// ids, table first.
struct ObjectGroup {
  int table_id = -1;
  std::vector<int> members;

  int size() const { return static_cast<int>(members.size()); }
};

}  // namespace dot

#endif  // DOTPROV_CATALOG_DB_OBJECT_H_
