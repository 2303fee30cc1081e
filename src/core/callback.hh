/**
 * @file
 * The one continuation type of the simulator.
 *
 * `Callback<R(A...)>` is a move-only callable with a small inline
 * buffer. A target of at most kCallbackInlineBytes bytes (pointer
 * aligned, nothrow movable) lives inside the Callback, so scheduling
 * an event or handing a layer its completion allocates nothing. A
 * larger target falls back to one heap allocation; only cold paths
 * (2PC, replication, serverless, cross-shard mail) produce those.
 *
 * Request-path closures are kept small on purpose: they capture
 * `this` and one 8-byte pooled handle (core/pool.hh), and reach the
 * rest of their state through it. Code that must stay allocation-free
 * can assert `Callback<...>::storesInline<F>`.
 *
 * Unlike std::function a Callback cannot be copied, so a closure may
 * own move-only state. Invoking it is const, as for std::function: the
 * target itself may mutate its captures. Invoking an empty Callback
 * throws std::bad_function_call.
 */

#ifndef UQSIM_CORE_CALLBACK_HH
#define UQSIM_CORE_CALLBACK_HH

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace uqsim {

/** Capture bytes a Callback stores inline; larger targets allocate. */
inline constexpr std::size_t kCallbackInlineBytes = 48;

template <typename Signature>
class Callback;

namespace detail {

template <typename T>
struct IsStdFunction : std::false_type
{};

template <typename Sig>
struct IsStdFunction<std::function<Sig>> : std::true_type
{};

} // namespace detail

template <typename R, typename... A>
class Callback<R(A...)>
{
    /** @p F is a callable target (not a Callback itself). */
    template <typename F, typename D = std::decay_t<F>>
    static constexpr bool kWraps = !std::is_same_v<D, Callback> &&
                                   std::is_invocable_r_v<R, D &, A...>;

  public:
    /** @return true if a target of type @p F is stored without allocating. */
    template <typename F>
    static constexpr bool storesInline =
        sizeof(F) <= kCallbackInlineBytes &&
        alignof(F) <= alignof(void *) &&
        std::is_nothrow_move_constructible_v<F>;

    Callback() noexcept = default;
    Callback(std::nullptr_t) noexcept {}

    /** Wrap @p f; an empty std::function or null pointer stays empty. */
    template <typename F, typename = std::enable_if_t<kWraps<F>>>
    Callback(F &&f)
    {
        construct(std::forward<F>(f));
    }

    Callback(Callback &&other) noexcept : ops_(other.ops_)
    {
        ops_->relocate(buf_, other.buf_);
        other.ops_ = &kEmptyOps;
    }

    Callback(const Callback &) = delete;
    Callback &operator=(const Callback &) = delete;

    /** Destroys the current target, then takes over @p other's. */
    Callback &
    operator=(Callback &&other) noexcept
    {
        if (this != &other) {
            reset();
            ops_ = other.ops_;
            ops_->relocate(buf_, other.buf_);
            other.ops_ = &kEmptyOps;
        }
        return *this;
    }

    Callback &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    /** Destroys the current target, then builds @p f in place. */
    template <typename F, typename = std::enable_if_t<kWraps<F>>>
    Callback &
    operator=(F &&f)
    {
        reset();
        construct(std::forward<F>(f));
        return *this;
    }

    ~Callback() { ops_->destroy(buf_); }

    /** Destroy the target, leaving this Callback empty. */
    void
    reset() noexcept
    {
        const Ops *ops = ops_;
        ops_ = &kEmptyOps;
        ops->destroy(buf_);
    }

    explicit operator bool() const noexcept { return ops_ != &kEmptyOps; }

    /**
     * Call the target. Nothing of this object is touched once the
     * target returns, so a target may destroy its own Callback.
     */
    R
    operator()(A... args) const
    {
        return ops_->invoke(buf_, std::forward<A>(args)...);
    }

  private:
    /** Build @p f's target into this (empty) Callback. */
    template <typename F>
    void
    construct(F &&f)
    {
        using D = std::decay_t<F>;
        if constexpr (std::is_pointer_v<D> ||
                      std::is_member_pointer_v<D> ||
                      detail::IsStdFunction<D>::value) {
            if (!f)
                return;
        }
        if constexpr (storesInline<D>) {
            ::new (static_cast<void *>(buf_)) D(std::forward<F>(f));
            ops_ = &kInlineOps<D>;
        } else {
            ::new (static_cast<void *>(buf_))
                void *(new D(std::forward<F>(f)));
            ops_ = &kHeapOps<D>;
        }
    }

    /** Per-target-type operations (a hand-rolled vtable). */
    struct Ops
    {
        R (*invoke)(void *self, A &&...args);
        /** Move-construct into @p dst and destroy the source. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *self) noexcept;
    };

    template <typename D>
    static D &
    inlineTarget(void *self)
    {
        return *std::launder(static_cast<D *>(self));
    }

    template <typename D>
    static D *
    heapTarget(void *self)
    {
        return static_cast<D *>(*std::launder(static_cast<void **>(self)));
    }

    /** std::invoke converting to R (a void R discards the result). */
    template <typename D>
    static R
    call(D &target, A &&...args)
    {
        if constexpr (std::is_void_v<R>)
            std::invoke(target, std::forward<A>(args)...);
        else
            return std::invoke(target, std::forward<A>(args)...);
    }

    template <typename D>
    static R
    invokeInline(void *self, A &&...args)
    {
        return call(inlineTarget<D>(self), std::forward<A>(args)...);
    }

    template <typename D>
    static void
    relocateInline(void *dst, void *src) noexcept
    {
        D &from = inlineTarget<D>(src);
        ::new (dst) D(std::move(from));
        from.~D();
    }

    template <typename D>
    static void
    destroyInline(void *self) noexcept
    {
        inlineTarget<D>(self).~D();
    }

    template <typename D>
    static R
    invokeHeap(void *self, A &&...args)
    {
        return call(*heapTarget<D>(self), std::forward<A>(args)...);
    }

    static void
    relocateHeap(void *dst, void *src) noexcept
    {
        ::new (dst) void *(*std::launder(static_cast<void **>(src)));
    }

    template <typename D>
    static void
    destroyHeap(void *self) noexcept
    {
        delete heapTarget<D>(self);
    }

    [[noreturn]] static R
    invokeEmpty(void *, A &&...)
    {
        throw std::bad_function_call();
    }

    static void relocateEmpty(void *, void *) noexcept {}
    static void destroyEmpty(void *) noexcept {}

    template <typename D>
    static constexpr Ops kInlineOps{&invokeInline<D>, &relocateInline<D>,
                                    &destroyInline<D>};
    template <typename D>
    static constexpr Ops kHeapOps{&invokeHeap<D>, &relocateHeap,
                                  &destroyHeap<D>};
    static constexpr Ops kEmptyOps{&invokeEmpty, &relocateEmpty,
                                   &destroyEmpty};

    const Ops *ops_ = &kEmptyOps;
    alignas(void *) mutable unsigned char buf_[kCallbackInlineBytes];
};

} // namespace uqsim

#endif // UQSIM_CORE_CALLBACK_HH
