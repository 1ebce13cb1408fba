#include "timing_storage.h"

#include <chrono>

namespace e2e {

namespace {

thread_local uint64_t t_thread_ns = 0;

/// Times one forwarded call; adds the elapsed time to `total` and to the
/// calling thread's running sum.
class CallTimer {
 public:
  explicit CallTimer(std::atomic<uint64_t>* total)
      : total_(total), start_(std::chrono::steady_clock::now()) {}
  ~CallTimer() {
    const uint64_t ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
    total_->fetch_add(ns, std::memory_order_relaxed);
    t_thread_ns += ns;
  }

 private:
  std::atomic<uint64_t>* total_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

pixels::Result<std::vector<uint8_t>> TimingStorage::Read(
    const std::string& path) {
  CallTimer timer(&get_ns_);
  return inner_->Read(path);
}

pixels::Result<std::vector<uint8_t>> TimingStorage::ReadRange(
    const std::string& path, uint64_t offset, uint64_t length) {
  CallTimer timer(&get_ns_);
  return inner_->ReadRange(path, offset, length);
}

pixels::Status TimingStorage::Write(const std::string& path,
                                    const std::vector<uint8_t>& data) {
  CallTimer timer(&put_ns_);
  return inner_->Write(path, data);
}

double TimingStorage::GetMicros() const {
  return static_cast<double>(get_ns_.load()) / 1e3;
}

double TimingStorage::PutMicros() const {
  return static_cast<double>(put_ns_.load()) / 1e3;
}

double TimingStorage::ThreadMicros() {
  return static_cast<double>(t_thread_ns) / 1e3;
}

}  // namespace e2e
