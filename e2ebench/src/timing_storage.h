// TimingStorage: a Storage decorator that times every GET and PUT it
// forwards. The traced run stacks it directly over the backing store,
// under the catalog's ObjectStore, so it times each physical GET after
// coalescing and each PUT of table files, worker views and exchange
// objects; the ObjectStore's own stats count them. The time of the calls
// made on the current thread is also kept per thread, so the format probe
// can subtract the storage time inside a row-group read from that read's
// wall time.
#pragma once

#include <atomic>
#include <memory>

#include "storage/storage.h"

namespace e2e {

class TimingStorage : public pixels::Storage {
 public:
  explicit TimingStorage(std::shared_ptr<pixels::Storage> inner)
      : inner_(std::move(inner)) {}

  pixels::Result<std::vector<uint8_t>> Read(const std::string& path) override;
  pixels::Result<std::vector<uint8_t>> ReadRange(const std::string& path,
                                                 uint64_t offset,
                                                 uint64_t length) override;
  pixels::Status Write(const std::string& path,
                       const std::vector<uint8_t>& data) override;
  pixels::Result<uint64_t> Size(const std::string& path) override {
    return inner_->Size(path);
  }
  pixels::Result<std::vector<std::string>> List(
      const std::string& prefix) override {
    return inner_->List(prefix);
  }
  pixels::Status Delete(const std::string& path) override {
    return inner_->Delete(path);
  }
  bool Exists(const std::string& path) override {
    return inner_->Exists(path);
  }

  /// Microseconds spent in GETs and in PUTs, on all threads.
  double GetMicros() const;
  double PutMicros() const;

  /// Microseconds this thread has spent inside TimingStorage calls.
  static double ThreadMicros();

 private:
  std::shared_ptr<pixels::Storage> inner_;
  std::atomic<uint64_t> get_ns_{0};
  std::atomic<uint64_t> put_ns_{0};
};

}  // namespace e2e
