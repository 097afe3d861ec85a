#include "src/tools/hacctl.h"

#include <cstdint>
#include <cstdio>
#include <memory>
#include <utility>

#include "src/core/durability.h"
#include "src/core/hac_file_system.h"
#include "src/server/client.h"
#include "src/server/hac_service.h"
#include "src/tools/flags.h"
#include "src/tools/fsck.h"

namespace hac {

namespace {

constexpr const char* kUsage =
    "usage: hacctl stats|trace | hacctl ls [--page N] PATH |\n"
    "       hacctl search [--limit N] QUERY [SCOPE] |\n"
    "       hacctl checkpoint|fsck --data-dir DIR";

// Parses the single "--data-dir DIR" argument pair the persistent subcommands take.
Result<std::string> DataDirArg(const std::vector<std::string>& args) {
  if (args.size() != 3 || args[1] != "--data-dir" || args[2].empty()) {
    return Error(ErrorCode::kInvalidArgument, kUsage);
  }
  return args[2];
}

Result<std::string> RunCheckpoint(const std::string& data_dir) {
  DurabilityOptions opts;
  opts.data_dir = data_dir;
  HAC_ASSIGN_OR_RETURN(std::unique_ptr<DurableStore> store,
                       DurableStore::Open(std::move(opts)));
  HAC_ASSIGN_OR_RETURN(std::unique_ptr<HacFileSystem> fs, store->Recover());
  HAC_RETURN_IF_ERROR(store->Checkpoint(*fs));
  char buf[160];
  std::snprintf(buf, sizeof(buf), "checkpointed %s at lsn %llu (replayed %llu)",
                data_dir.c_str(),
                static_cast<unsigned long long>(store->last_lsn()),
                static_cast<unsigned long long>(
                    store->recovery_info().replayed_records));
  return std::string(buf);
}

Result<std::string> RunDataDirFsck(const std::string& data_dir) {
  DurabilityOptions opts;
  opts.data_dir = data_dir;
  HAC_ASSIGN_OR_RETURN(std::unique_ptr<DurableStore> store,
                       DurableStore::Open(std::move(opts)));
  HAC_ASSIGN_OR_RETURN(std::unique_ptr<HacFileSystem> fs, store->Recover());
  const RecoveryInfo& info = store->recovery_info();
  FsckReport report = RunFsck(*fs);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "checkpoint_lsn %llu replayed %llu skipped %llu "
                "tail_truncated %d\nstate_digest %016llx\n",
                static_cast<unsigned long long>(info.checkpoint_lsn),
                static_cast<unsigned long long>(info.replayed_records),
                static_cast<unsigned long long>(info.skipped_records),
                info.tail_truncated ? 1 : 0,
                static_cast<unsigned long long>(StateDigest(*fs)));
  std::string out = buf + report.ToString();
  if (!report.Clean()) {
    return Error(ErrorCode::kCorrupt, "fsck found inconsistencies:\n" + out);
  }
  return out;
}

// Touches every instrumented layer at least once: writes batch through the writer
// thread, the semantic directory exercises the consistency engine and the index,
// searches and stats run the read path and the attribute cache.
Result<void> RunDemoWorkload(ServiceClient& client) {
  HAC_RETURN_IF_ERROR(client.Mkdir("/projects"));
  HAC_RETURN_IF_ERROR(
      client.WriteFile("/projects/fingerprint.txt", "fingerprint analysis notes"));
  HAC_RETURN_IF_ERROR(
      client.WriteFile("/projects/dental.txt", "dental records summary"));
  HAC_RETURN_IF_ERROR(
      client.WriteFile("/projects/interview.txt", "suspect interview transcript"));
  HAC_RETURN_IF_ERROR(client.SMkdir("/evidence", "fingerprint OR dental"));
  HAC_RETURN_IF_ERROR(client.Search("records", "/projects"));
  HAC_RETURN_IF_ERROR(client.StatPath("/projects/fingerprint.txt"));
  HAC_RETURN_IF_ERROR(client.StatPath("/projects/fingerprint.txt"));  // cache hit
  HAC_RETURN_IF_ERROR(client.ReadDir("/evidence"));
  HAC_RETURN_IF_ERROR(client.WriteFile("/projects/notes.txt", "more dental findings"));
  HAC_RETURN_IF_ERROR(client.Reindex());
  return OkResult();
}

// Strips an optional "<flag> N" prefix from `rest` (N > 0); 0 = server default.
Result<size_t> TakeCountFlag(std::vector<std::string>& rest, const char* flag) {
  if (rest.size() < 2 || rest[0] != flag) {
    return size_t{0};
  }
  auto v = ParseDecimal(rest[1], SIZE_MAX);
  if (!v.ok() || v.value() == 0) {
    return Error(ErrorCode::kInvalidArgument, kUsage);
  }
  rest.erase(rest.begin(), rest.begin() + 2);
  return static_cast<size_t>(v.value());
}

// Paged enumeration over the cursor ops (docs/API.md "Cursor ops"): shows what a
// streaming client sees, including how many pages the server cut the result into.
Result<std::string> RunPagedLs(ClientApi& client, const std::string& path,
                               size_t page_size) {
  HAC_ASSIGN_OR_RETURN(Fd cursor, client.OpenCursor(path));
  std::string out;
  size_t pages = 0, total = 0;
  for (;;) {
    HAC_ASSIGN_OR_RETURN(CursorPage page, client.FetchPage(cursor, page_size));
    ++pages;
    for (const DirEntry& e : page.entries) {
      out += e.name;
      out += '\n';
      ++total;
    }
    if (!page.has_more) {
      break;
    }
  }
  HAC_RETURN_IF_ERROR(client.CloseCursor(cursor));
  char buf[96];
  std::snprintf(buf, sizeof(buf), "# %zu entries in %zu page(s)\n", total, pages);
  return out + buf;
}

Result<std::string> RunPagedSearch(ClientApi& client, const std::string& query,
                                   const std::string& scope, size_t page_size) {
  HAC_ASSIGN_OR_RETURN(Fd cursor, client.OpenCursor(scope, query));
  std::string out;
  size_t pages = 0, total = 0;
  for (;;) {
    HAC_ASSIGN_OR_RETURN(CursorPage page, client.FetchPage(cursor, page_size));
    ++pages;
    for (const std::string& p : page.paths) {
      out += p;
      out += '\n';
      ++total;
    }
    if (!page.has_more) {
      break;
    }
  }
  HAC_RETURN_IF_ERROR(client.CloseCursor(cursor));
  char buf[96];
  std::snprintf(buf, sizeof(buf), "# %zu matches in %zu page(s)\n", total, pages);
  return out + buf;
}

}  // namespace

Result<std::string> RunHacctl(const std::vector<std::string>& args) {
  if (!args.empty() && args[0] == "checkpoint") {
    HAC_ASSIGN_OR_RETURN(std::string dir, DataDirArg(args));
    return RunCheckpoint(dir);
  }
  if (!args.empty() && args[0] == "fsck") {
    HAC_ASSIGN_OR_RETURN(std::string dir, DataDirArg(args));
    return RunDataDirFsck(dir);
  }
  if (!args.empty() && (args[0] == "ls" || args[0] == "search")) {
    std::vector<std::string> rest(args.begin() + 1, args.end());
    HAC_ASSIGN_OR_RETURN(
        size_t page_size,
        TakeCountFlag(rest, args[0] == "ls" ? "--page" : "--limit"));
    HacFileSystem fs;
    HacService service(fs);
    ServiceClient client(service);
    HAC_RETURN_IF_ERROR(RunDemoWorkload(client));
    if (args[0] == "ls") {
      if (rest.size() != 1) {
        return Error(ErrorCode::kInvalidArgument, kUsage);
      }
      return RunPagedLs(client, rest[0], page_size);
    }
    if (rest.empty() || rest.size() > 2) {
      return Error(ErrorCode::kInvalidArgument, kUsage);
    }
    return RunPagedSearch(client, rest[0], rest.size() == 2 ? rest[1] : "/",
                          page_size);
  }
  if (args.size() != 1 || (args[0] != "stats" && args[0] != "trace")) {
    return Error(ErrorCode::kInvalidArgument, kUsage);
  }
  HacFileSystem fs;
  HacService service(fs);
  ServiceClient client(service);
  HAC_RETURN_IF_ERROR(RunDemoWorkload(client));
  HAC_ASSIGN_OR_RETURN(std::string out, client.Introspect(args[0]));
  return out;
}

}  // namespace hac
