#include "storage/pager.h"

#include <cstdio>
#include <string>

#include "gtest/gtest.h"
#include "test_util.h"

namespace xksearch {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

Page PatternPage(uint8_t seed) {
  Page p;
  for (size_t i = 0; i < kPageSize; ++i) {
    p.data[i] = static_cast<uint8_t>(seed + i);
  }
  return p;
}

template <typename StoreT>
void ExerciseStore(StoreT* store) {
  EXPECT_EQ(store->page_count(), 0u);
  Result<PageId> p0 = store->AllocatePage();
  ASSERT_TRUE(p0.ok());
  EXPECT_EQ(*p0, 0u);
  Result<PageId> p1 = store->AllocatePage();
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(*p1, 1u);
  EXPECT_EQ(store->page_count(), 2u);

  // Fresh pages are zeroed.
  Page read;
  XKS_ASSERT_OK(store->ReadPage(0, &read));
  for (size_t i = 0; i < kPageSize; i += 509) EXPECT_EQ(read.data[i], 0);

  const Page a = PatternPage(3);
  const Page b = PatternPage(7);
  XKS_ASSERT_OK(store->WritePage(0, a));
  XKS_ASSERT_OK(store->WritePage(1, b));
  XKS_ASSERT_OK(store->ReadPage(0, &read));
  EXPECT_EQ(read.data, a.data);
  XKS_ASSERT_OK(store->ReadPage(1, &read));
  EXPECT_EQ(read.data, b.data);

  // Out-of-range access fails cleanly.
  EXPECT_TRUE(store->ReadPage(2, &read).IsOutOfRange());
  EXPECT_TRUE(store->WritePage(9, a).IsOutOfRange());
}

TEST(MemPageStoreTest, BasicReadWrite) {
  MemPageStore store;
  ExerciseStore(&store);
}

TEST(FilePageStoreTest, BasicReadWrite) {
  const std::string path = TempPath("pager_basic.db");
  Result<std::unique_ptr<FilePageStore>> store = FilePageStore::Create(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ExerciseStore(store->get());
  std::remove(path.c_str());
}

TEST(FilePageStoreTest, PersistsAcrossReopen) {
  const std::string path = TempPath("pager_reopen.db");
  {
    Result<std::unique_ptr<FilePageStore>> store = FilePageStore::Create(path);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->AllocatePage().ok());
    XKS_ASSERT_OK((*store)->WritePage(0, PatternPage(42)));
    XKS_ASSERT_OK((*store)->Sync());
  }
  {
    Result<std::unique_ptr<FilePageStore>> store = FilePageStore::Open(path);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ((*store)->page_count(), 1u);
    Page read;
    XKS_ASSERT_OK((*store)->ReadPage(0, &read));
    EXPECT_EQ(read.data, PatternPage(42).data);
  }
  std::remove(path.c_str());
}

TEST(FilePageStoreTest, OpenMissingFileFails) {
  EXPECT_TRUE(
      FilePageStore::Open(TempPath("does_not_exist.db")).status().IsIoError());
}

TEST(FilePageStoreTest, OpenRejectsTornFile) {
  const std::string path = TempPath("pager_torn.db");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a page multiple", f);
    std::fclose(f);
  }
  EXPECT_TRUE(FilePageStore::Open(path).status().IsCorruption());
  std::remove(path.c_str());
}

TEST(FilePageStoreTest, CreateTruncatesExisting) {
  const std::string path = TempPath("pager_trunc.db");
  {
    Result<std::unique_ptr<FilePageStore>> store = FilePageStore::Create(path);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->AllocatePage().ok());
  }
  {
    Result<std::unique_ptr<FilePageStore>> store = FilePageStore::Create(path);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ((*store)->page_count(), 0u);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace xksearch
